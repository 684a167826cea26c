"""Direct solver: grid, projection, stepping, energy ledger, stability report.

The shared configuration uses the box-matched eps near 0.3 so the packet is
exactly x-periodic in the computational box; nx = 192 keeps the carrier
(~44 wavelengths per period) comfortably above Nyquist.
"""

import collections
import copy
import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded, solveh_banded
from scipy.linalg.lapack import zpbtrs
from scipy.optimize import brentq
from scipy.sparse import diags_array

from wavecrit import characteristic, corrector, dns
from wavecrit.corrector import assemble_W1, evaluate_W1
from wavecrit.dns import (
    BlockSweep,
    DnsError,
    PeriodicBox,
    SimConfig,
    Solver,
    State,
    WappNodes,
    box_matched_eps,
    compare_stability,
    energy_budget,
    init_from_Wapp,
    stretched_grid,
)
from wavecrit.packets import (
    Envelope,
    Family,
    QuadratureSpec,
    assemble_W0,
    evaluate_packet,
    incident_polarization,
    packet_norms,
)
from wavecrit.params import PhysParams, critical_carrier, dispersion_omega

# Ly = 60 truncates the slowly recurring packet tail on purpose (kept small
# for speed); the overflow warning it triggers is expected throughout.
pytestmark = pytest.mark.filterwarnings(
    "ignore:packet reaches the domain top")

GAMMA = 0.7
EPS = box_matched_eps(0.3, 1.0, 9)
PARAMS = PhysParams(gamma=GAMMA, eps=EPS)


def make_config(delta=0.0, **kw):
    p = PhysParams(gamma=GAMMA, eps=EPS, delta=delta)
    defaults = dict(Lx=2.0 * math.pi / (EPS**2 * 0.25), Ly=60.0, nx=192,
                    ny=256, dt=0.01, T=0.5, dy0=1e-3, dy_max=0.6)
    defaults.update(kw)
    return SimConfig(params=p, **defaults)


@pytest.fixture(scope="module")
def assembly():
    env = Envelope(carrier=critical_carrier(GAMMA, 1.0), eps=EPS)
    return assemble_W0(PARAMS, env, QuadratureSpec(9))


@pytest.fixture(scope="module")
def solver(assembly):
    return Solver(make_config(Lx=assembly.x_period))


@pytest.fixture(scope="module")
def initial(assembly, solver):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return init_from_Wapp(assembly, None, solver.config, solver)


@pytest.fixture(scope="module")
def twin():
    """(W0, W1, solver, W_app(0) state) at delta = eps^3, 5 nodes per lobe."""
    p = PhysParams(gamma=GAMMA, eps=EPS, delta=EPS**3)
    asm = assemble_W0(p, Envelope(carrier=critical_carrier(GAMMA, 1.0), eps=EPS),
                      QuadratureSpec(5))
    w1 = assemble_W1(asm)
    sol = Solver(make_config(delta=EPS**3, Lx=asm.x_period))
    return asm, w1, sol, init_from_Wapp(asm, w1, sol.config, sol)


def _hat(*fields):
    """rfft along x of physical fields."""
    return tuple(np.fft.rfft(f, axis=1) for f in fields)


def _phys(solver, *fhs):
    """Physical fields of rfft columns on the solver's grid."""
    return tuple(np.fft.irfft(fh, n=solver.grid.nx, axis=1) for fh in fhs)


def _state(solver, u, w, b, p):
    """State at t = 0 of physical fields."""
    return State(*_hat(u, w, b, p), 0.0, solver.grid.nx)


def _ddx(solver, f):
    """Spectral x-derivative, the Nyquist mode zeroed as in the solver."""
    return np.fft.irfft(1j * solver.kx_d * np.fft.rfft(f, axis=1), n=solver.grid.nx,
                        axis=1)


@pytest.fixture(scope="module")
def stability(solver, assembly):
    """delta = 0 linear run to t = 0.5, compared with W0 every 10 steps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compare_stability(solver, 50, 10, assembly)


@pytest.fixture(scope="module")
def trajectory(stability):
    return stability[0]


@pytest.fixture(scope="module")
def report(stability):
    return stability[1]


class TestGridAndConfig:
    def test_stretched_grid_shape(self):
        y = stretched_grid(60.0, 256, 1e-3, 0.6)
        dy = np.diff(y)
        assert y[0] == 0.0
        assert y[-1] == pytest.approx(60.0)
        assert dy[0] == pytest.approx(1e-3, rel=1e-6)
        assert dy.min() > 0
        assert (dy[1:] / dy[:-1]).max() <= 1.08 + 1e-12
        assert dy.max() <= 0.6 + 1e-12

    def test_stretched_grid_near_uniform(self):
        """Ly a hair above dy0 (ny - 1): the root lies just below the
        bracket, r takes its lower end, and the grid is still built."""
        Ly, dy_max = 1e-3 * 383 * (1 + 1e-13), 0.5
        y = stretched_grid(Ly, 384, 1e-3, dy_max)
        dy = np.diff(y)
        assert y[0] == 0.0 and y[-1] == Ly
        assert (dy > 0).all()
        assert (dy[1:] / dy[:-1]).max() <= 1.08 + 1e-12
        assert dy.max() <= dy_max

    @pytest.mark.parametrize("Ly, ny, dy0, dy_max",
                             [(300.0, 384, 1e-3, 1.0), (300.0, 768, 1e-3, 1.0),
                              (60.0, 256, 1e-3, 0.6)])
    def test_stretched_grid_ratio_is_the_root(self, Ly, ny, dy0, dy_max):
        """The stretch ratio is the root to the last bit: the grid matches one
        built from brentq's root at xtol 1e-15 to 1e-12 Ly."""
        k = np.arange(ny - 1)
        r = brentq(lambda r: np.minimum(dy0 * r**k, dy_max).sum() - Ly,
                   1.0 + 1e-12, 1.08, xtol=1e-15)
        want = np.concatenate([[0.0], np.cumsum(np.minimum(dy0 * r**k, dy_max))])
        want[-1] = Ly
        assert np.abs(stretched_grid(Ly, ny, dy0, dy_max) - want).max() <= 1e-12 * Ly

    def test_grid_built_once(self, monkeypatch):
        """One SimConfig and its Solver build the y-grid once, bit-identical
        to a direct stretched_grid call; the cached grid is not a field, so
        config equality ignores it."""
        calls = []

        def counted(*args):
            calls.append(args)
            return stretched_grid(*args)

        monkeypatch.setattr(dns, "stretched_grid", counted)
        config = make_config()
        solver = Solver(config)
        assert len(calls) == 1
        want = stretched_grid(config.Ly, config.ny, config.dy0, config.dy_max)
        assert np.array_equal(solver.grid.y, want)
        assert "y" not in {f.name for f in dataclasses.fields(SimConfig)}
        assert config == make_config()

    def test_stretched_grid_unreachable(self):
        with pytest.raises(DnsError):
            stretched_grid(60.0, 128, 1e-3, 0.6)

    @pytest.mark.parametrize("dy0", [1.0, 1e-3], ids=["uniform", "stretched"])
    def test_spacing_above_dy_max_refused(self, dy0):
        """Ly = 300 on 384 points needs a spacing of at least 300/383 = 0.783,
        above dy_max = 0.5: refused alike whether dy0 makes the grid uniform
        (dy0 (ny - 1) >= Ly) or stretched."""
        with pytest.raises(DnsError, match=rf"^cannot reach Ly=300 with ny=384, "
                                           rf"dy0={dy0:.3g}, dy_max=0.5 at"):
            stretched_grid(300.0, 384, dy0, 0.5)

    def test_dt_rotational_limit(self):
        with pytest.raises(DnsError):
            make_config(dt=0.2)

    @pytest.mark.parametrize("name,value", [
        ("dt", 0.0), ("dt", -0.01), ("T", -1.0), ("T", math.inf), ("Ly", -60.0), ("nx", 0),
        ("ny", 1), ("Lx", -5.0), ("Lx", math.nan), ("Lx", math.inf), ("dy0", 0.0),
        ("dy0", math.nan), ("dy_max", math.nan), ("dy_max", -1.0)])
    def test_out_of_range_refused(self, name, value):
        """Refused by name, not left to a raw ZeroDivisionError, ValueError
        or OverflowError later, or a silent run."""
        with pytest.raises(DnsError, match=f"^{name} must be .*, got {value!r}$"):
            make_config(**{name: value})

    def test_thin_layer_resolution(self):
        # a coarse near-wall spacing leaves < 8 points in the eps^3 layer
        with pytest.raises(DnsError):
            make_config(dy0=0.1, ny=256)

    @pytest.mark.parametrize("points,slack", [(8, 1.0 + 1e-9), (7, 1.0 - 1e-9)],
                             ids=["8-accepted", "7-refused"])
    def test_thin_layer_needs_eight_points(self, points, slack):
        """A uniform grid whose 8th point y[7] sits 1e-9 (relative) inside
        or outside 5 widths of the eps^3 layer, at the closed-form rate
        Re lambda5 = sqrt(omega0 (nu + kappa) / (2 nu kappa)): 8 points are
        accepted, 7 refused by count."""
        lam5 = math.sqrt(math.sin(GAMMA) * (PARAMS.nu + PARAMS.kappa)
                         / (2.0 * PARAMS.nu * PARAMS.kappa))
        h = 5.0 / lam5 / (7.0 * slack)  # y[7] = 7 h
        box = dict(Ly=15 * h, ny=16, dy0=2 * h)
        if points == 8:
            assert int(np.sum(make_config(**box).y <= 5.0 / lam5)) == 8
        else:
            with pytest.raises(DnsError, match=r"^only 7 grid points within 5 widths"):
                make_config(**box)

    def test_config_solves_no_root(self, monkeypatch):
        """The layer check reads its rate in closed form: building a
        SimConfig calls characteristic.roots_for through no binding."""
        calls, roots_for = [], characteristic.roots_for

        def counted(spec):
            calls.append(spec)
            return roots_for(spec)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "wavecrit" and getattr(mod, "roots_for", None) is roots_for:
                monkeypatch.setattr(mod, "roots_for", counted)
        make_config()
        assert calls == []

    def test_carrier_is_w0s_alone(self):
        """k0 is W0's carrier's, not a SimConfig field to disagree with it."""
        assert "k0" not in {f.name for f in dataclasses.fields(SimConfig)}
        with pytest.raises(TypeError, match="k0"):
            make_config(k0=1.0)

    def test_box_matched_eps(self):
        assert box_matched_eps(0.2, 1.0, 9) == pytest.approx(0.2)
        snapped = box_matched_eps(0.3, 1.0, 9)
        assert abs(snapped - 0.3) < 0.01
        assert (1.0 / (snapped**2 * 0.25)) == pytest.approx(
            round(1.0 / (snapped**2 * 0.25)))
        with pytest.raises(DnsError):
            box_matched_eps(3.0, 1.0, 9)

    def test_box_matched_eps_even_nodes(self):
        """At an even node count the snapped packet is x_period-periodic.

        The nodes sit at half-offsets of the lattice, so snapping k0 / dk to
        an integer (the odd-count rule) would make W0 antiperiodic.
        """
        eps = box_matched_eps(0.3, 1.0, 6)
        p = PhysParams(gamma=GAMMA, eps=eps)
        env = Envelope(carrier=critical_carrier(GAMMA, 1.0), eps=eps)
        asm = assemble_W0(p, env, QuadratureSpec(6))
        x, y = np.array([0.3, 1.7, 4.1]), np.array([0.0, 1.0, 5.0])
        here = evaluate_packet(asm, Family.SUM, 0.0, (x, y))
        there = evaluate_packet(asm, Family.SUM, 0.0, (x + asm.x_period, y))
        for a, b in zip(here, there):
            assert np.abs(b - a).max() <= 1e-12 * np.abs(a).max()


class TestFdWeights:
    """The stencil recurrence runs on every row at once, by the scalar
    recurrence's operations."""

    @pytest.mark.parametrize("y", [stretched_grid(300.0, 384, 1e-3, 1.0),
                                   np.linspace(0.0, 2.0, 40)],
                             ids=["stretched", "uniform"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_batched_rows_equal_row_by_row(self, y, m):
        cols = np.clip(np.arange(len(y)) - 2, 0, len(y) - 5)[:, None] + np.arange(5)
        rows = np.array([dns._fd_weights(y[c], z, m) for c, z in zip(cols, y)])
        assert np.array_equal(dns._fd_weights(y[cols], y, m), rows)

    def test_grid_rows_are_the_stencils(self):
        """Dy's row j holds the 5-point weights at y[j] (one-sided near the
        ends), which differentiate (y - y[j])^p, p <= 4, to rounding."""
        g = _grid(384)
        y, Dy = g.y, g.Dy.toarray()
        for j in (0, 1, 2, 200, 382, 383):
            c = np.clip(j - 2, 0, len(y) - 5) + np.arange(5)
            assert np.array_equal(Dy[j, c], dns._fd_weights(y[c], y[j], 1))
            d = y[c] - y[j]
            for p in range(5):
                want = 1.0 if p == 1 else 0.0
                tol = 1e-12 * np.abs(Dy[j, c]).sum() * np.abs(d).max() ** p
                assert abs(Dy[j, c] @ d**p - want) <= tol


@pytest.fixture(scope="module")
def random_uw(solver):
    rng = np.random.default_rng(7)
    g = solver.grid
    u = rng.standard_normal((g.ny, g.nx))
    w = rng.standard_normal((g.ny, g.nx))
    u[0] = 0.0
    w[0] = 0.0
    w[-1] = 0.0
    return u, w


def _dense_projection(solver, u, w):
    """Oracle: the projection with dense matrices and one solve per kx, as
    rfft columns (u', w', phi)."""
    g = solver.grid
    Dy = g.Dy.toarray()
    du, dw = g.tau.copy(), g.tau.copy()
    du[0] = dw[0] = dw[-1] = 0.0  # the pinned rows carry no weight
    K = Dy.T @ (dw[:, None] * Dy)
    uh, wh = np.fft.rfft(u, axis=1), np.fft.rfft(w, axis=1)
    rhs = -1j * solver.kx_d * du[:, None] * uh + Dy.T @ (dw[:, None] * wh)
    phih = np.empty_like(uh)
    for i, kx in enumerate(solver.kx_d):
        if kx == 0.0:
            phih[:, i] = np.linalg.pinv(K, rcond=1e-10, hermitian=True) @ rhs[:, i]
        else:
            phih[:, i] = np.linalg.solve(K + np.diag(kx * kx * du), rhs[:, i])
    uh -= 1j * solver.kx_d * phih
    wh -= Dy @ phih
    uh[0] = wh[0] = wh[-1] = 0.0
    return uh, wh, phih


def _dense_forms(solver, name):
    """One field's diffusion as dense matrices built here: the embedding Z
    of its free rows, the restriction R onto them, the mass and stiffness
    forms M and Kq, the half-step factor a and the coefficient c."""
    g = solver.grid
    ny, s = g.ny, g.stencil
    free = slice(1, -1) if name == "w" else slice(1, None)
    Z = np.eye(ny)[:, free]
    R = np.eye(ny)[free, :]
    if name == "b":
        Z[0, : s - 1] = -solver.neumann_wall[1:] / solver.neumann_wall[0]
    DyZ = g.Dy.toarray() @ Z
    M = Z.T @ (g.tau[:, None] * Z)
    Kq = DyZ.T @ (g.tau[:, None] * DyZ)
    p = solver.config.params
    c = p.kappa if name == "b" else p.nu
    return Z, R, M, Kq, 0.25 * solver.config.dt * c, c


def _dense_diffusion(solver, f, name):
    """Oracle: the half diffusion step as the dense propagator Z Pq R."""
    g = solver.grid
    Z, R, M, Kq, a, c = _dense_forms(solver, name)
    out = Z @ np.linalg.solve(M + a * Kq, M - a * Kq) @ R @ f
    damp = np.exp(-0.5 * c * solver.kx**2 * solver.config.dt)
    return np.fft.irfft(damp * np.fft.rfft(out, axis=1), n=g.nx, axis=1)


class TestBandedOperators:
    """The banded y-operators against dense oracles built here."""

    @pytest.mark.parametrize("name", ["u", "w", "b"])
    def test_diffusion_matches_dense_propagator(self, solver, name):
        g = solver.grid
        f = np.random.default_rng(5).standard_normal((g.ny, g.nx))
        want = _dense_diffusion(solver, f, name)
        got, = _phys(solver, solver._diffuse(*_hat(f), name))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_projection_matches_dense_per_kx_solve(self, solver, random_uw):
        """u' and w' at 1e-12 of the input; phi at 1e-10 of its own size on
        the kx_d != 0 columns.

        The smallest-kx systems have condition numbers near 3e7, so phi
        carries about 5e-12 of rounding in any double-precision solve, the
        oracle's included.  The projected velocities, the output of an
        orthogonal projector, do not.  At kx_d = 0 the oracle's
        pseudo-inverse gives the minimum-norm potential, where the solver's
        phi is 0 (TestSingularColumns); the velocities agree either way.
        """
        want = _dense_projection(solver, *random_uw)
        got = solver.project(*_hat(*random_uw))
        scale = max(np.abs(f).max() for f in random_uw)
        for name, a, b in zip(("u", "w"), _phys(solver, *got[:2]),
                              _phys(solver, *want[:2])):
            err = np.abs(a - b).max() / scale
            assert err <= 1e-12, (name, err)
        reg = solver.kx_d != 0.0
        a, b = _phys(solver, got[2] * reg, want[2] * reg)
        err = np.abs(a - b).max() / np.abs(b).max()
        assert err <= 1e-10, ("phi", err)

    def test_complex_solve_matches_per_kx_real_solves(self, solver):
        """phi of the one complex block-diagonal solve against a real
        banded solve of each regular column's A_k, once for the real and
        once for the imaginary part of its right-hand side."""
        g = solver.grid
        rng = np.random.default_rng(11)
        uh, wh = (rng.standard_normal((g.ny, len(solver.kx)))
                  + 1j * rng.standard_normal((g.ny, len(solver.kx))) for _ in range(2))
        uh[0] = wh[0] = wh[-1] = 0.0
        _, _, phih, _ = solver.project(uh, wh)
        rhs = solver._adjoint_div(uh, wh)
        reg = np.flatnonzero(solver.kx_d)
        assert len(reg) == len(solver.kx) - 2  # all but kx = 0 and Nyquist
        want = np.zeros_like(phih)
        for i in reg:
            ab = solver._proj_band.copy()
            ab[-1] += solver.kx_d[i] ** 2 * solver._tau_u[:, 0]
            want[:, i] = (solveh_banded(ab, rhs[:, i].real)
                          + 1j * solveh_banded(ab, rhs[:, i].imag))
        err = np.abs(phih - want).max() / np.abs(want).max()
        assert err <= 1e-13, err


#: ny -> (Ly, dy_max) of the grids below: near uniform at the smallest sizes,
#: the production stretch at 384 and 768
GRIDS = {5: (4.2e-3, math.inf), 6: (5.3e-3, math.inf), 8: (7.5e-3, math.inf),
         40: (0.2, math.inf), 384: (300.0, 1.0), 768: (300.0, 1.0)}


def _grid(ny):
    return dns.Grid(1.0, 16, stretched_grid(GRIDS[ny][0], ny, 1e-3, GRIDS[ny][1]))


def _upper_triangle(ab):
    """The upper triangle held in upper banded storage (LAPACK 'U')."""
    bw, n = len(ab) - 1, ab.shape[1]
    return sum(np.diag(ab[bw - k, k:], k) for k in range(min(bw, n - 1) + 1))


class TestUpperBanded:
    """dns._upper_banded stores every entry of its matrix, or refuses."""

    @pytest.mark.parametrize("ny", [5, 6, 8, 40, 384])
    def test_projection_bands_stored_exactly(self, ny):
        """K = G^T diag(tau) G, G = Dy[1:-1], the projection's band, at
        bandwidth s - 1; and G G^T, a band one wider, at s."""
        g = _grid(ny)
        G = g.Dy[1:-1]
        K = G.T @ diags_array(g.tau[1:-1]) @ G
        for A, bw in ((K, g.stencil - 1), (G @ G.T, g.stencil)):
            got = _upper_triangle(dns._upper_banded(A, bw))
            assert np.array_equal(got, np.triu(A.toarray()))

    def test_refuses_what_it_would_drop(self):
        """Rows 1 and 6 of Dy share column 4, so G G^T reaches offset s."""
        g = _grid(384)
        G = g.Dy[1:-1]
        with pytest.raises(ValueError, match=rf"offset {g.stencil} .*bandwidth {g.stencil - 1}"):
            dns._upper_banded(G @ G.T, g.stencil - 1)


@pytest.fixture(scope="module", params=[6, 40, 384, 768])
def singular(request):
    """A 16-column solver at ny rows, random complex u and w columns and
    their projection.  No 6-row grid resolves the thin layer, so there the
    resolution check of SimConfig is off; the projection does not read it."""
    ny = request.param
    Ly, dy_max = GRIDS[ny]
    with pytest.MonkeyPatch.context() as mp:
        if ny < 8:
            mp.setattr(SimConfig, "__post_init__", lambda self: None)
        solver = Solver(make_config(nx=16, ny=ny, Ly=Ly, dy_max=dy_max))
    rng = np.random.default_rng(ny)
    uh, wh = rng.standard_normal((2, ny, 9)) + 1j * rng.standard_normal((2, ny, 9))
    return solver, uh, wh, solver.project(uh, wh)


class TestSingularColumns:
    """kx = 0 and Nyquist (kx_d = 0), where the constraint is
    G^T (tau w)[1:-1] = 0 with G = Dy[1:-1]: G has full row rank, so the
    constraint space holds w = 0 alone.  w comes back exactly 0, u is kept
    off the wall row, and phi is 0."""

    SING = [0, 8]  # kx = 0 and Nyquist of 16 x-points

    def test_w_vanishes_on_interior_rows(self, singular):
        """Exactly, and on the pinned rows too."""
        _, _, _, (_, w1, _, _) = singular
        assert not w1[:, self.SING].any()

    def test_u_unchanged(self, singular):
        """Bit for bit off the wall row; the pinned wall row is 0."""
        _, uh, _, (u1, _, _, _) = singular
        assert np.array_equal(u1[1:, self.SING], uh[1:, self.SING])
        assert not u1[0, self.SING].any()

    def test_phi_is_zero(self, singular):
        _, _, _, (_, _, phi, _) = singular
        assert not phi[:, self.SING].any()

    def test_phi_is_orthogonal_to_the_null_space(self, singular):
        """phi = 0 is, trivially; what makes w = 0 the exact projection is
        that G = Dy[1:-1] has full row rank, so G^T v = 0 only for v = 0.
        The dense SVD of G resolves that to about eps cond(G)."""
        solver, _, _, _ = singular
        sv = np.linalg.svd(solver.grid.Dy[1:-1].toarray(), compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]


def _solver_and_factors(config):
    """A Solver and the banded Cholesky factor of each field's diffusion
    system (u, w, b), taken as its BlockSweeps are built."""
    factors = []

    def recording(ab):
        factors.append(ab)
        return BlockSweep(ab)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dns, "BlockSweep", recording)
        solver = Solver(config)
    return solver, dict(zip(("u", "w", "b"), factors))


def _pbtrs_diffuse(solver, factors):
    """Solver._diffuse with LAPACK's banded solve in place of the sweep and
    the textbook right-hand side (M - a Kq) f, built here from dense forms."""
    rhs = {}
    for name in factors:
        _, _, M, Kq, a, _ = _dense_forms(solver, name)
        rhs[name] = M - a * Kq

    def diffuse(self, fh, name):
        rows = self._diff[name][0]
        q = cho_solve_banded((factors[name], False), rhs[name] @ dns._pairs(fh)[rows],
                             check_finite=False)
        out = np.zeros_like(fh)
        out[rows] = dns._complex(q)
        if name == "b":
            w = self.neumann_wall
            out[0] = -(w[1:] / w[0]) @ out[1:len(w)]
        return out * self._xdamp[name]

    return diffuse


def _random_banded_spd(n, bw, rng):
    """Upper banded storage of a random, strongly coupled SPD matrix."""
    ab = rng.uniform(-1.0, 1.0, (bw + 1, n))
    for i in range(bw):
        ab[i, : bw - i] = 0.0  # the unused corner of the storage
    ab[bw] = 2.0 * bw + 1.0 + rng.uniform(0.0, 1.0, n)  # diagonal dominance
    return ab


class TestBlockSweep:
    """The diffusion's block sweep against LAPACK's banded solve (pbtrs)."""

    @pytest.mark.parametrize("n", [1, 3, 47, 48, 49, 51, 97, 99, 145])
    def test_matches_pbtrs_on_strong_coupling(self, n):
        """Random banded SPD systems with O(1) couplings, at sizes with a
        single short block, a ragged last block and one too short to stand
        alone (it joins the block before)."""
        rng = np.random.default_rng(n)
        chol = cholesky_banded(_random_banded_spd(n, 4, rng))
        r = rng.standard_normal((n, 5))
        want = cho_solve_banded((chol, False), r)
        got = BlockSweep(chol).solve(r.copy(), np.empty_like(r))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.fixture(scope="class", params=[97, 384, 768])
    def factored(self, request):
        ny = request.param
        kw = (dict(Ly=10.0, dy_max=math.inf) if ny == 97
              else dict(Ly=300.0, dy_max=1.0))
        return _solver_and_factors(make_config(nx=16, ny=ny, **kw))

    @pytest.mark.parametrize("width", [1, 6, 258])
    @pytest.mark.parametrize("name", ["u", "w", "b"])
    def test_matches_pbtrs_on_each_field(self, factored, name, width):
        """Each field's factor at ny = 97, 384 and 768, on 1 column, the
        delta = 0 twin's 3 complex columns and a full-width 256 x 384
        state's 129."""
        solver, factors = factored
        chol = factors[name]
        r = np.random.default_rng(width).standard_normal((chol.shape[1], width))
        want = cho_solve_banded((chol, False), r)
        got = solver._diff[name][2].solve(r.copy(), np.empty_like(r))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_march_matches_pbtrs_path(self, assembly):
        """20 delta = eps^3 steps at 256 x 384 against the same march with
        pbtrs diffusion: fields at 1e-12, energy and dissipation series at
        1e-13, projection losses at 1e-12 E0."""
        config = make_config(delta=EPS**3, Lx=assembly.x_period, nx=256,
                             ny=384, Ly=300.0, dy_max=1.0)
        solver, factors = _solver_and_factors(config)
        initial = init_from_Wapp(assembly, None, config, solver)
        got = solver.run(initial, 20)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Solver, "_diffuse", _pbtrs_diffuse(solver, factors))
            want = solver.run(initial, 20)
        for a, b in zip((got.final.uh, got.final.wh, got.final.bh),
                        (want.final.uh, want.final.wh, want.final.bh)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        for a, b in ((got.energy, want.energy), (got.dissipation, want.dissipation)):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
        e0 = want.energy[0]
        assert np.abs(got.proj_loss - want.proj_loss).max() <= 1e-12 * e0


def _plain_proj_factor(solver):
    """The plain banded Cholesky factor U (A = U^H U, LAPACK 'U' storage) of
    the projection's block-diagonal matrix, one A_k per regular column."""
    kx = solver.kx_d[solver._proj_regular]
    ab = np.tile(solver._proj_band, len(kx))
    ab[-1] += np.outer(kx * kx, solver._tau_u[:, 0]).ravel()
    return np.asfortranarray(cholesky_banded(ab), dtype=complex)


class TestProjection:
    def test_divergence_after_projection(self, solver, random_uw):
        u1, w1 = solver.project(*_hat(*random_uw))[:2]
        assert solver.div_residual(u1, w1) <= 1e-8

    def test_idempotence(self, solver, random_uw):
        u1h, w1h = solver.project(*_hat(*random_uw))[:2]
        u2, w2 = _phys(solver, *solver.project(u1h, w1h)[:2])
        u1, w1 = _phys(solver, u1h, w1h)
        scale = max(np.abs(u1).max(), np.abs(w1).max())
        assert np.abs(u2 - u1).max() <= 1e-12 * scale
        assert np.abs(w2 - w1).max() <= 1e-12 * scale

    def test_orthogonal_and_non_expansive(self, solver, random_uw):
        u, w = random_uw
        u1, w1 = _phys(solver, *solver.project(*_hat(u, w))[:2])
        g = solver.grid
        cross = g.integral(u1 * (u - u1) + w1 * (w - w1))
        assert abs(cross) <= 1e-10 * g.integral(u**2 + w**2)
        assert g.integral(u1**2 + w1**2) <= g.integral(u**2 + w**2) * (1 + 1e-12)

    def test_phi_matches_zpbtrs_on_the_plain_factor(self, solver, random_uw):
        """phi on the regular columns is LAPACK zpbtrs's solution of the
        block-diagonal system over its plain banded Cholesky factor, to
        1e-13 of its largest entry: the unit-diagonal sweeps solve the same
        system."""
        uh, wh = _hat(*random_uw)
        reg = solver._proj_regular
        rhs = solver._adjoint_div(uh, wh)[:, reg].T.ravel()
        want, info = zpbtrs(_plain_proj_factor(solver), rhs)
        assert info == 0
        want = want.reshape(-1, solver.grid.ny).T
        phih = solver.project(uh, wh)[2]
        assert np.abs(phih[:, reg] - want).max() <= 1e-13 * np.abs(want).max()

    def test_phi_solves_each_column(self, solver, random_uw):
        """A_k phi_k = rhs_k on every regular column, A_k = kx^2 diag(tau_u)
        + Dy^T diag(tau_w) Dy built here from the grid: the residual is at
        most 1e-12 of |A_k| |phi_k| (the scale of the products it sums)."""
        g = solver.grid
        uh, wh = _hat(*random_uw)
        reg = solver._proj_regular
        rhs = solver._adjoint_div(uh, wh)[:, reg]
        phi = solver.project(uh, wh)[2][:, reg]
        tau_u = np.r_[0.0, g.tau[1:]]
        K = g.Dy.T @ diags_array(np.r_[0.0, g.tau[1:-1], 0.0]) @ g.Dy
        absK = abs(K)
        for j, kx in enumerate(solver.kx_d[reg]):
            res = K @ phi[:, j] + kx**2 * tau_u * phi[:, j] - rhs[:, j]
            scale = absK @ np.abs(phi[:, j]) + kx**2 * tau_u * np.abs(phi[:, j])
            assert np.abs(res).max() <= 1e-12 * scale.max(), j

    def test_loss_is_the_energy_removed(self, solver):
        """project's loss is ||v - Pv||^2 to 1e-12 of itself and
        ||v||^2 - ||Pv||^2 to 1e-12 of ||v||^2, for an input whose pinned
        rows and kx_d = 0 columns are not zero.  Of it, what the input holds
        there counts whole: with those entries set to 0 the loss drops by
        their energy."""
        g = solver.grid
        uh, wh = _hat(*np.random.default_rng(17).standard_normal((2, g.ny, g.nx)))
        edge = solver.kx_d == 0.0
        assert edge.sum() == 2 and uh[0].all() and wh[0].all() and wh[-1].all()
        u1, w1, _, loss = solver.project(uh, wh)
        assert abs(loss - solver.norm2(uh - u1, wh - w1)) <= 1e-12 * loss
        total = solver.norm2(uh, wh)
        assert abs(loss - (total - solver.norm2(u1, w1))) <= 1e-12 * total
        cut_u, cut_w = uh.copy(), wh.copy()
        cut_u[0] = cut_w[[0, -1]] = 0.0
        cut_w[:, edge] = 0.0
        dropped = total - solver.norm2(cut_u, cut_w)
        assert solver.project(cut_u, cut_w)[3] == pytest.approx(loss - dropped,
                                                                rel=1e-12, abs=0.0)

    def test_advection_is_energy_neutral(self, solver, random_uw):
        rng = np.random.default_rng(11)
        g = solver.grid
        uh, wh = solver.project(*_hat(*random_uw))[:2]
        f = rng.standard_normal((g.ny, g.nx))
        adv, = _phys(solver, solver.advect(uh, wh, *_hat(f))[2])
        ip = g.integral(f * adv)
        fx = _ddx(solver, f)
        grad = math.sqrt(g.integral(fx ** 2 + (g.Dy @ f) ** 2))
        assert abs(ip) <= 1e-10 * math.sqrt(g.integral(f**2)) * grad

    def test_advection_matches_physical_skew_form(self, solver, random_uw):
        """advect is (u dx f + w Dy f)/2 + (dx(u f) - Dy*(w f))/2 for f = u,
        w, b, built here from physical fields, dense Dy and Dy* = T^-1 Dy^T T."""
        g = solver.grid
        uh, wh = solver.project(*_hat(*random_uw))[:2]
        bh, = _hat(np.random.default_rng(13).standard_normal((g.ny, g.nx)))
        u, w, b = _phys(solver, uh, wh, bh)
        Dy = g.Dy.toarray()
        Dy_adj = Dy.T * g.tau[None, :] / g.tau[:, None]
        got = _phys(solver, *solver.advect(uh, wh, bh))
        for f, adv in zip((u, w, b), got):
            want = 0.5 * (u * _ddx(solver, f) + w * (Dy @ f)
                          + _ddx(solver, u * f) - Dy_adj @ (w * f))
            assert np.abs(adv - want).max() <= 1e-12 * np.abs(adv).max()


class TestSpectralState:
    """The state is carried as rfft columns; these tests pin that design."""

    def test_parseval_energy_and_dissipation(self, solver):
        """Parseval sums against the physical-space quadrature."""
        g = solver.grid
        rng = np.random.default_rng(3)
        fields = [rng.standard_normal((g.ny, g.nx)) for _ in range(4)]
        st = _state(solver, *fields)
        u, w, b, _ = fields
        want = g.integral(u**2 + w**2 + b**2)
        assert abs(solver._energy_and_dissipation(st)[0] - want) <= 1e-13 * want
        p = solver.config.params
        want = sum(c * g.integral(_ddx(solver, f) ** 2 + (g.Dy @ f) ** 2)
                   for c, f in ((p.nu, u), (p.nu, w), (p.kappa, b)))
        assert abs(solver.dissipation(st) - want) <= 1e-13 * want

    @pytest.mark.parametrize("delta,budget", [(0.0, 0), (EPS**3, 24)])
    def test_fft_budget_per_step(self, assembly, initial, monkeypatch, delta, budget):
        """A step transforms only for advection: none at delta = 0, exactly 24
        else (12 per Heun stage in advect; the CFL bound settles the guard
        with no transform)."""
        sol = Solver(make_config(delta=delta, Lx=assembly.x_period))
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                     "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        sol.step(initial)
        assert len(calls) == budget, calls

    def test_run_steps_once_per_step(self, solver, initial, monkeypatch):
        steps = []
        step = Solver.step

        def counted(self, state):
            steps.append(state.t)
            return step(self, state)

        monkeypatch.setattr(Solver, "step", counted)
        traj = solver.run(initial, 3)
        assert len(steps) == 3
        assert len(traj.proj_loss) == 4

    @pytest.mark.parametrize("n_steps,save_every,saved_at",
                             [(7, 3, [0, 3, 6, 7]), (6, 3, [0, 3, 6]),
                              (7, 0, [0, 7]), (0, 3, [0])])
    def test_run_saves_start_every_kth_and_last_step(
            self, solver, initial, n_steps, save_every, saved_at):
        """on_save sees t = 0, every save_every-th step and the last step,
        and what it keeps is never changed by a later step."""
        seen, copies = [], []

        def keep(state):
            seen.append(state)
            copies.append(copy.deepcopy(state))

        traj = solver.run(initial, n_steps, save_every, on_save=keep)
        assert [round(s.t / solver.config.dt) for s in seen] == saved_at
        assert seen[0] is initial and seen[-1] is traj.final
        for a, b in zip(seen, copies):
            for c in ("uh", "wh", "bh", "ph"):
                assert np.array_equal(getattr(a, c), getattr(b, c))

    def test_save_times_are_the_saved_states_times(self, solver, initial, assembly):
        """compare_stability's report["t"] is the t of each state the march
        saves, bit for bit: t accumulated by + dt, which 6 dt is not (0.01
        added six times is 0.060000000000000005)."""
        seen = []
        solver.run(initial, 7, 3, on_save=seen.append)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the packet reaches the lid
            t = compare_stability(solver, 7, 3, assembly)[1]["t"]
        assert [s.t.hex() for s in seen] == [x.hex() for x in t.tolist()]
        assert t[2] != 6 * solver.config.dt


class TestColumnSubset:
    """At delta = 0 a state holds only the packet's own rfft columns."""

    def test_trajectory_matches_widened_state(self, solver, initial):
        """A subset march against the same state on every column, its saved
        states collected through on_save.

        proj_loss is the difference of two norms, each rounded at ~1e-16
        of the energy, so it is compared on that scale.
        """
        narrow, broad = [], []
        trajectory = solver.run(initial, 50, 10, on_save=narrow.append)
        wide = solver.run(initial.widen(), 50, 10, on_save=broad.append)
        assert not trajectory.final.full and wide.final.full
        assert len(narrow) == 6
        for name in ("energy", "dissipation"):
            np.testing.assert_allclose(getattr(trajectory, name),
                                       getattr(wide, name), rtol=1e-12, atol=0)
        np.testing.assert_allclose(trajectory.proj_loss, wide.proj_loss,
                                   rtol=0, atol=1e-12 * wide.energy[0])
        for a, b in zip(narrow, broad, strict=True):
            for c in "uwbp":
                want = getattr(b, c)
                err = np.abs(getattr(a, c) - want).max()
                assert err <= 1e-12 * np.abs(want).max(), (a.t, c, err)

    def test_any_subset_steps_as_widened(self, solver):
        """Columns with kx = 0 and Nyquist (no potential solve) among regular
        ones that are not contiguous: the sliced operators act as the full."""
        g = solver.grid
        cols = np.array([0, 3, 4, 40, g.nx // 2])
        rng = np.random.default_rng(2)
        f = [rng.standard_normal((g.ny, len(cols)))
             + 1j * rng.standard_normal((g.ny, len(cols))) for _ in range(4)]
        for fh in f:
            fh[:, [0, -1]] = fh[:, [0, -1]].real  # real at kx = 0 and Nyquist
        sub = State(*f, 0.0, g.nx, cols)
        (a, la), (b, lb) = solver.step(sub), solver.step(sub.widen())
        e = solver._energy_and_dissipation(sub)[0]
        assert la == pytest.approx(lb, rel=1e-12, abs=1e-12 * e)
        for c in ("uh", "wh", "bh", "ph"):
            want = getattr(b, c)
            err = np.abs(getattr(a, c) - want[:, cols]).max()
            assert err <= 1e-12 * np.abs(want).max(), (c, err)
            assert not np.delete(want, cols, axis=1).any(), c

    def test_advecting_solver_widens_first(self, assembly, initial):
        """With delta != 0 a subset state steps exactly as its widened copy."""
        sol = Solver(make_config(delta=EPS**3, Lx=assembly.x_period))
        (a, la), (b, lb) = sol.step(initial), sol.step(initial.widen())
        assert a.full and la == lb
        for c in ("uh", "wh", "bh", "ph"):
            assert np.array_equal(getattr(a, c), getattr(b, c)), c

    @pytest.mark.parametrize("delta,want", [(0.0, [47, 48, 49]),
                                            (1e-3, list(range(129)))])
    def test_lattice_columns(self, delta, want):
        """The benchmark's stability twin grid: 5 nodes per lobe, 256 x 384.

        There k0 / dk = 48 and the end nodes carry a zero bump weight, so
        W0 sits on columns 47-49; advection needs all 129.
        """
        gamma, eps = 0.7344421851525048, box_matched_eps(0.204, 1.0, 5)
        p = PhysParams(gamma=gamma, eps=eps, delta=delta)
        env = Envelope(carrier=critical_carrier(gamma, 1.0), eps=eps)
        asm = assemble_W0(p, env, QuadratureSpec(5))
        cfg = SimConfig(params=p, Lx=asm.x_period, Ly=300.0, nx=256, ny=384,
                        dt=0.01, T=0.4, dy_max=1.0)
        st = init_from_Wapp(asm, None, cfg, Solver(cfg))
        assert st.cols.tolist() == want

    OFF_LATTICE = r"up to 0\.44\d* of a column off the rfft"

    @staticmethod
    def off_lattice():
        """(W0, config) at eps = 0.3, which is not box-matched."""
        eps = 0.3
        assert box_matched_eps(eps, 1.0, 9) != eps
        p = PhysParams(gamma=GAMMA, eps=eps)
        env = Envelope(carrier=critical_carrier(GAMMA, 1.0), eps=eps)
        asm = assemble_W0(p, env, QuadratureSpec(9))
        return asm, SimConfig(params=p, Lx=asm.x_period, Ly=60.0, nx=192, ny=256,
                              dt=0.01, T=0.5, dy_max=0.6)

    def test_off_lattice_packet_refused(self):
        """An eps that is not box-matched puts W0 between the columns, 0.444
        of a column off at 9 nodes per lobe: there is no column to place it
        in, and the error names the distance."""
        asm, cfg = self.off_lattice()
        with pytest.raises(DnsError, match=self.OFF_LATTICE):
            init_from_Wapp(asm, None, cfg, Solver(cfg))

    def test_off_lattice_refused_by_the_nodes(self, monkeypatch):
        """The lattice check is WappNodes' own, made when it is built: the
        nodes refuse the packet themselves, and compare_stability refuses
        it before the march saves or steps anything."""
        asm, cfg = self.off_lattice()
        sol = Solver(cfg)
        with pytest.raises(DnsError, match=self.OFF_LATTICE):
            WappNodes(asm, None, sol.grid)

        def refuse(*args, **kwargs):
            raise AssertionError("the march ran")

        monkeypatch.setattr(Solver, "run", refuse)
        with pytest.raises(DnsError, match=self.OFF_LATTICE):
            compare_stability(sol, 1, 1, asm)

    def test_held_columns_chosen_by_energy(self, assembly, initial):
        """The delta = 0 state is the delta != 0 one on the held columns,
        bit for bit, and the dropped columns hold no energy at all: W_app
        is placed in the columns it touches, every other one is 0."""
        p = PhysParams(gamma=GAMMA, eps=EPS, delta=EPS**3)
        env = Envelope(carrier=critical_carrier(GAMMA, 1.0), eps=EPS)
        asm = assemble_W0(p, env, QuadratureSpec(9))
        sol = Solver(make_config(delta=EPS**3, Lx=assembly.x_period))
        wide = init_from_Wapp(asm, None, sol.config, sol)
        assert wide.full and not initial.full
        for c in ("uh", "wh", "bh", "ph"):
            assert np.array_equal(getattr(initial, c),
                                  getattr(wide, c)[:, initial.cols]), c
        rest = copy.deepcopy(wide)
        for fh in (rest.uh, rest.wh, rest.bh):
            fh[:, initial.cols] = 0.0
        assert sol._energy_and_dissipation(rest)[0] == 0.0

    @pytest.mark.parametrize("method,n_args", [("project", 2),
                                               ("div_residual", 2),
                                               ("advect", 3)])
    def test_width_mismatch_is_typed(self, solver, initial, method, n_args):
        """Arrays of a subset state given to the full-width solver."""
        args = (initial.uh, initial.wh, initial.bh)[:n_args]
        match = rf"\b{len(initial.cols)}\b.* holding {solver.grid.nx // 2 + 1}"
        with pytest.raises(DnsError, match=match):
            getattr(solver, method)(*args)

    def test_solves_see_only_the_held_columns(self, solver, initial, monkeypatch):
        """Each banded solve of a delta = 0 step sees only the held rfft
        columns: each of the 4 projection solves' 2 triangular sweeps gets
        ny complex entries per held (regular) column, and each of the 6
        diffusion sweeps 2 float columns (real, imaginary) per held column.
        The step never goes back to full width."""
        ny, n = solver.grid.ny, len(initial.cols)
        assert np.all(initial.cols > 0) and np.all(2 * initial.cols < solver.grid.nx)
        seen = []
        ztbsv = dns.ztbsv

        def counted(k, ab, b, **kwargs):
            assert b.dtype == complex
            seen.append(("project", b.size / ny))
            return ztbsv(k, ab, b, **kwargs)

        sweep_solve = BlockSweep.solve

        def counted_sweep(sweep, r, y):
            seen.append(("sweep", r.shape[1]))
            return sweep_solve(sweep, r, y)

        monkeypatch.setattr(dns, "ztbsv", counted)
        monkeypatch.setattr(BlockSweep, "solve", counted_sweep)
        solver.step(initial)
        assert sorted(seen) == [("project", n)] * 8 + [("sweep", 2 * n)] * 6


class TestPlacement:
    """WappNodes.place on every rfft column against an independent oracle:
    the rfft of W0 + W1 synthesized on the grid (evaluate_packet and
    evaluate_W1)."""

    #: case -> (gamma, eps, last time, box), at 5 nodes per lobe
    CASES = {
        "stability-twin": (0.7344421851525048, box_matched_eps(0.204, 1.0, 5), 0.4,
                           dict(Ly=300.0, nx=256, ny=384, dy_max=1.0)),
        "w1-folds": (GAMMA, EPS, 0.04, dict(Ly=60.0, nx=64, ny=192, dy_max=0.6)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_rfft_of_sampled_field(self, case):
        """The benchmark's stability twin (W1 up to column 98 of 128) and the
        CLI's small DNS box, nx = 64, where W0 sits on columns 21-23 and W1's
        second harmonic on 42-46 folds back below Nyquist."""
        gamma, eps, t_end, box = self.CASES[case]
        p = PhysParams(gamma=gamma, eps=eps, delta=eps**3)
        asm = assemble_W0(p, Envelope(critical_carrier(gamma, 1.0), eps), QuadratureSpec(5))
        w1 = assemble_W1(asm)
        cfg = SimConfig(params=p, Lx=asm.x_period, dt=0.01, T=t_end, **box)
        g = dns.Grid(cfg.Lx, cfg.nx, cfg.y)
        top = {name: np.abs(l).max() * g.Lx / (2.0 * math.pi) for name, l in
               (("w0", asm.bundle(Family.SUM).l), ("w1", w1.profiles(0.0, g.y)[0]))}
        assert 2 * top["w0"] < g.nx
        assert (2 * top["w1"] > g.nx) == (case == "w1-folds")
        for t in (0.0, t_end):
            w0_field = evaluate_packet(asm, Family.SUM, t, (g.x, g.y))
            want = np.stack([np.fft.rfft(a + b, axis=1) for a, b in
                             zip(w0_field, evaluate_W1(w1, t, g.x, g.y))])
            got = WappNodes(asm, w1, g).place(t, np.arange(g.nx // 2 + 1))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestInit:
    def test_matches_packet_on_grid(self, assembly, solver, initial):
        """delta = 0 initial state is W0(0) up to the final projection."""
        g = solver.grid
        ua, wa, ba = evaluate_packet(assembly, Family.SUM, 0.0, (g.x, g.y))
        num = g.integral((initial.u - ua) ** 2 + (initial.w - wa) ** 2
                         + (initial.b - ba) ** 2)
        den = g.integral(ua**2 + wa**2 + ba**2)
        # the residue is the projection adjustment plus the lid-truncated
        # packet tail (edge amplitude ~1e-2 of peak at Ly = 60)
        assert math.sqrt(num / den) <= 0.02

    def test_state_invariants(self, solver, initial):
        assert np.abs(initial.u[0]).max() == 0.0
        assert np.abs(initial.w[0]).max() == 0.0
        full = initial.widen()
        assert solver.div_residual(full.uh, full.wh) <= 1e-8
        wall = np.abs(solver.neumann_wall @ initial.b[: solver.grid.stencil])
        assert wall.max() <= 1e-8 * np.abs(initial.b).max()

    def test_energy_matches_packet_norms(self, assembly, solver, initial):
        """Cross-module: grid energy vs the packet L2 on the same grid."""
        g = solver.grid
        l2, _ = packet_norms(assembly.bundle(Family.SUM), (g.x, g.y))
        assert math.sqrt(solver._energy_and_dissipation(initial)[0]) == pytest.approx(
            math.hypot(*l2), rel=1e-3)

    def test_w0_above_nyquist_refused(self, assembly):
        """W0's top wavenumber, at rfft column 47, would alias at nx = 64."""
        cfg = make_config(Lx=assembly.x_period, nx=64)
        with pytest.raises(DnsError, match="column 47, at or above the Nyquist column nx/2 = 32"):
            init_from_Wapp(assembly, None, cfg, Solver(cfg))

    @pytest.mark.parametrize("nx,folds", [(256, True), (512, False)])
    def test_third_harmonic_fold_warning(self, nx, folds):
        """The stability twin's packet (5 nodes/lobe, delta = eps^3): its
        3 k0 harmonic folds at nx = 256, and nx = 512 resolves it."""
        gamma, eps = 0.7344421851525048, box_matched_eps(0.204, 1.0, 5)
        p = PhysParams(gamma=gamma, eps=eps, delta=eps**3)
        asm = assemble_W0(p, Envelope(critical_carrier(gamma, 1.0), eps), QuadratureSpec(5))
        cfg = SimConfig(params=p, Lx=asm.x_period, Ly=300.0, nx=nx, ny=384, dy_max=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            init_from_Wapp(asm, None, cfg, Solver(cfg))
        fold = [str(w.message) for w in caught if "3 k0" in str(w.message)]
        want = ["advection's 3 k0 harmonic sits at rfft column 147, at or above the "
                "Nyquist column nx/2 = 128, and folds; nx > 294 resolves it"]
        assert fold == (want if folds else [])

    def test_overflow_warning(self, assembly):
        cfg = make_config(Lx=assembly.x_period, Ly=30.0, ny=192)
        with pytest.warns(UserWarning, match="domain top"):
            init_from_Wapp(assembly, None, cfg, Solver(cfg))


class TestWappMatchesTheRun:
    """W_app must be built for the run: W0 at its parameters but for delta,
    and W1 from that W0 and at all of them.  init_from_Wapp and compare_stability refuse anything else with a
    DnsError naming the field."""

    @staticmethod
    def refused(w0, w1, config, match):
        sol = Solver(config)
        with pytest.raises(DnsError, match=match):
            init_from_Wapp(w0, w1, config, sol)
        with pytest.raises(DnsError, match=match):
            compare_stability(sol, 1, 1, w0, w1)

    @pytest.mark.parametrize("field,value", [("eps", 0.99 * EPS), ("gamma", 0.69),
                                             ("nu0", 1.5)])
    def test_w0_at_other_params(self, assembly, field, value):
        p = dataclasses.replace(PARAMS, **{field: value})
        cfg = dataclasses.replace(make_config(Lx=assembly.x_period), params=p)
        self.refused(assembly, None, cfg,
                     rf"^W0 was built at {field}={getattr(PARAMS, field)!r}, "
                     rf"the run is at {field}={value!r}$")

    def test_w1_at_other_delta(self, twin):
        asm, w1 = twin[:2]
        cfg = make_config(delta=2 * EPS**3, Lx=asm.x_period)
        self.refused(asm, w1, cfg, rf"^W1 was built at delta={EPS**3!r}, "
                                       rf"the run is at delta={2 * EPS**3!r}$")

    def test_w1_of_another_w0(self, assembly, twin):
        """W1 is a function of its own W0: the twin's W1 (5 nodes per lobe)
        next to the 9-node W0, at the same parameters and carrier, is
        refused, though its wavenumbers sit on that W0's box lattice."""
        w1 = twin[1]
        cfg = make_config(delta=EPS**3, Lx=assembly.x_period)
        self.refused(assembly, w1, cfg, r"^W1 was built from another W0$")

    def test_delta_zero_run_shares_the_w0(self, twin):
        """W0 does not depend on delta: a delta = 0 run takes the W0 built
        at delta = eps^3, and its start and report are those a delta = 0 W0
        gives, bit for bit."""
        asm = twin[0]
        cfg = make_config(Lx=asm.x_period)
        own = assemble_W0(PARAMS, asm.envelope, QuadratureSpec(5))
        sol = Solver(cfg)
        st, ref = (init_from_Wapp(w0, None, cfg, sol) for w0 in (asm, own))
        for a, b in ((st.uh, ref.uh), (st.wh, ref.wh), (st.bh, ref.bh)):
            assert np.array_equal(a, b)
        rep, rep_own = (compare_stability(sol, 2, 1, w0)[1] for w0 in (asm, own))
        assert np.array_equal(rep["diff_L2"], rep_own["diff_L2"])


class TestStep:
    def test_zero_stays_zero(self, solver):
        g = solver.grid
        z = np.zeros((g.ny, g.nx))
        st = _state(solver, z, z, z, z)
        out, _ = solver.step(st)
        for f in (out.u, out.w, out.b):
            assert np.abs(f).max() == 0.0

    def test_nan_detection(self, solver):
        g = solver.grid
        z = np.zeros((g.ny, g.nx))
        bad = z.copy()
        bad[5, 5] = np.nan
        with pytest.raises(DnsError, match="NaN"):
            solver.step(_state(solver, bad, z, z, z))

    def test_nan_detection_in_buoyancy(self, solver):
        """A NaN in b alone is caught before the step spreads it to u and w."""
        g = solver.grid
        z = np.zeros((g.ny, g.nx))
        bad = z.copy()
        bad[5, 5] = np.nan
        with pytest.raises(DnsError, match="NaN"):
            solver.step(_state(solver, z, z, bad, z))

    def test_cfl_abort(self):
        cfg = make_config(delta=EPS**2)
        sol = Solver(cfg)
        g = sol.grid
        u = np.full((g.ny, g.nx), 1e4)
        u[0] = 0.0
        z = np.zeros_like(u)
        with pytest.raises(DnsError, match="CFL"):
            sol.step(_state(sol, u, z, z, z))

    def test_cfl_bound_is_above_the_exact_cfl(self, twin):
        """cfl_bound >= cfl on random full-width states and on a marched
        delta != 0 state; on one x-wavenumber whose peak is a grid point the
        bound is the exact CFL to rounding.  Both are 0 at delta = 0."""
        asm, w1, sol, st = twin
        g = sol.grid
        rng = np.random.default_rng(5)
        states = [_state(sol, *rng.standard_normal((4, g.ny, g.nx))) for _ in range(3)]
        states.append(sol.run(st, 5).final)
        for s in states:
            assert 0.0 < sol.cfl(s) <= sol.cfl_bound(s)
        x = np.cos(2.0 * math.pi * 3 * g.x / g.Lx)
        one = _state(sol, *np.broadcast_to(x, (4, g.ny, g.nx)))
        assert sol.cfl_bound(one) == pytest.approx(sol.cfl(one), rel=1e-12)
        linear = Solver(make_config(Lx=asm.x_period))
        assert linear.cfl_bound(states[0]) == linear.cfl(states[0]) == 0.0

    def test_cfl_bound_above_half_steps_on_the_exact_cfl(self):
        """A state whose bound exceeds 0.5 but whose exact CFL is below it:
        the step reads the exact CFL and goes on."""
        sol = Solver(make_config(delta=EPS**2))
        g = sol.grid
        rng = np.random.default_rng(2)
        phase = 2.0 * math.pi * np.outer(rng.integers(1, 20, 8), g.x / g.Lx)
        u = np.broadcast_to(np.cos(phase + rng.uniform(0, 6, (8, 1))).sum(axis=0),
                            (g.ny, g.nx)).copy()
        u[0] = 0.0
        z = np.zeros_like(u)
        st = _state(sol, u, z, z, z)
        scale = 0.45 / sol.cfl(st)
        st = _state(sol, scale * u, z, z, z)
        assert sol.cfl(st) < 0.5 < sol.cfl_bound(st)
        out, _ = sol.step(st)
        assert np.isfinite(out.uh).all()

    def test_march_stays_on_the_constraint_space(self):
        """A delta != 0 march at the stability twin's packet (5 nodes per
        lobe, eps near 0.2, delta = eps^3, W1 included) on a smaller box:
        advection fills kx = 0 and Nyquist, yet every saved state has w
        exactly 0 there and the pinned rows u[0], w[0], w[-1] exactly 0, and
        the last projection's phi is 0 there."""
        eps = box_matched_eps(0.2, 1.0, 5)
        p = PhysParams(gamma=GAMMA, eps=eps, delta=eps**3)
        env = Envelope(carrier=critical_carrier(GAMMA, 1.0), eps=eps)
        w0 = assemble_W0(p, env, QuadratureSpec(5))
        cfg = SimConfig(params=p, Lx=w0.x_period, Ly=60.0, nx=128, ny=192,
                        dt=0.01, T=0.12, dy0=1e-3, dy_max=0.6)
        sol = Solver(cfg)
        saved = []
        sol.run(init_from_Wapp(w0, assemble_W1(w0), cfg, sol), 12, 3,
                on_save=saved.append)
        sing = [0, cfg.nx // 2]
        assert len(saved) == 5 and np.abs(saved[-1].uh[:, 0]).max() > 0.0
        for st in saved:
            assert not (st.uh[0].any() or st.wh[0].any() or st.wh[-1].any()), st.t
            assert not st.wh[:, sing].any(), st.t
        assert not saved[-1].ph[:, sing].any()

    def test_interior_plane_wave_phase(self):
        """Inviscid periodic twin advances a modal solution by e^{-i omega dt}."""
        Lx = Ly = 10.0
        k = 2.0 * math.pi * 3 / Lx
        m = 2.0 * math.pi * 2 / Ly
        om = dispersion_omega(k, m, GAMMA)
        U, W, B = incident_polarization(k, m, GAMMA, om)
        box = PeriodicBox(PARAMS, Lx, Ly, 32, 32)
        xx, yy = np.meshgrid(np.linspace(0, Lx, 32, endpoint=False),
                             np.linspace(0, Ly, 32, endpoint=False))
        phase = np.exp(1j * (k * xx + m * yy))
        flds = ((U * phase).real, (W * phase).real, (B * phase).real)
        dt, n = 1e-3, 10
        for _ in range(n):
            flds = box.step(flds, dt)
        drift = np.exp(-1j * om * n * dt)
        for got, amp in zip(flds, (U, W, B)):
            want = (amp * phase * drift).real
            assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()

    def test_self_convergence_second_order(self, assembly):
        """Halving dt shrinks the error vs a fine reference ~4x."""
        final = {}
        for dt in (0.01, 0.005, 0.00125):
            cfg = make_config(Lx=assembly.x_period, dt=dt, T=0.2)
            sol = Solver(cfg)
            st = init_from_Wapp(assembly, None, cfg, sol)
            final[dt] = sol.run(st, int(round(0.2 / dt))).final
        g = sol.grid
        ref = final[0.00125]

        def err(dt):
            f = final[dt]
            return math.sqrt(g.integral((f.u - ref.u) ** 2
                                        + (f.w - ref.w) ** 2
                                        + (f.b - ref.b) ** 2))

        ratio = err(0.01) / err(0.005)
        assert 3.0 <= ratio <= 6.0, ratio


def _plain_step_methods(solver):
    """Solver.project, _tendency and step with numpy temporaries for every
    slope and Heun sum and the projection's two sweeps over the plain
    (non-unit) banded Cholesky factor of the solver's columns: the
    arithmetic the unit-diagonal sweeps and the axpy updates replaced."""
    chol = _plain_proj_factor(solver)
    bw = len(chol) - 1

    def project(self, uh, wh):
        g = self.grid
        phih = self._adjoint_div(uh, wh)
        reg = self._proj_regular
        y = dns.ztbsv(bw, chol, phih[:, reg].T.ravel(), trans=2)
        loss = 2.0 * g.dx / g.nx * np.vdot(y, y).real
        phih[:, reg] = dns.ztbsv(bw, chol, y).reshape(-1, g.ny).T
        phih[:, :reg.start] = phih[:, reg.stop:] = 0.0
        u = uh - self._ikx * phih
        w = wh - dns._ycols(g.Dy, phih)
        pinned = np.stack([uh[0], wh[0], wh[-1]]).view(float)
        edge = np.concatenate([w[1:-1, :reg.start], w[1:-1, reg.stop:]], axis=1).view(float)
        loss += (g.tau[[0, 0, -1]] @ (pinned * pinned) @ self._parseval
                 + g.dx / g.nx * (g.tau[1:-1] @ (edge * edge)).sum())
        u[0] = w[0] = w[-1] = 0.0
        w[:, :reg.start] = w[:, reg.stop:] = 0.0
        return u, w, phih, float(loss)

    def tendency(self, uh, wh, bh):
        p = self.config.params
        sg, cg = math.sin(p.gamma), math.cos(p.gamma)
        rot = (sg * bh, cg * bh, -sg * uh - cg * wh)
        if p.delta == 0.0:
            fu, fw, fb = rot
        else:
            fu, fw, fb = (-p.delta * a + r for a, r in zip(self.advect(uh, wh, bh), rot))
        fu, fw = self.project(fu, fw)[:2]
        return fu, fw, self._noflux(fb)

    def step(self, state):
        dt = self.config.dt
        u, w, b = (self._diffuse(f, name) for f, name in
                   ((state.uh, "u"), (state.wh, "w"), (state.bh, "b")))
        u, w, _, loss = self.project(u, w)
        k1 = self._tendency(u, w, b)
        stage = [f + dt * k for f, k in zip((u, w, b), k1)]
        fields = [f + 0.5 * dt * k for f, k in zip((u, w, b), k1)]
        fields = [f + 0.5 * dt * k for f, k in zip(fields, self._tendency(*stage))]
        u, w, b = (self._diffuse(f, name) for f, name in zip(fields, "uwb"))
        u, w, phi, removed = self.project(u, w)
        return State(u, w, b, phi / dt, state.t + dt, state.nx), loss + removed

    return {"project": project, "_tendency": tendency, "step": step}


class TestStepArithmetic:
    """The step's unit-diagonal sweeps and in-place slope updates against
    the plain arithmetic they replaced."""

    def test_march_matches_plain_arithmetic(self, assembly):
        """20 delta = eps^3 steps at 256 x 384: fields at 1e-12 of their
        max, energy and dissipation series at 1e-13, projection losses at
        1e-12 E0."""
        config = make_config(delta=EPS**3, Lx=assembly.x_period, nx=256,
                             ny=384, Ly=300.0, dy_max=1.0)
        solver = Solver(config)
        initial = init_from_Wapp(assembly, None, config, solver)
        got = solver.run(initial, 20)
        with pytest.MonkeyPatch.context() as mp:
            for name, method in _plain_step_methods(solver).items():
                mp.setattr(Solver, name, method)
            want = solver.run(initial, 20)
        for a, b in zip((got.final.uh, got.final.wh, got.final.bh),
                        (want.final.uh, want.final.wh, want.final.bh)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        for a, b in ((got.energy, want.energy), (got.dissipation, want.dissipation)):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
        assert np.abs(got.proj_loss - want.proj_loss).max() <= 1e-12 * want.energy[0]

    def test_step_calls(self, twin, monkeypatch):
        """A delta != 0 step projects 4 times (after the first diffusion,
        each Heun slope, after the second diffusion) and advects twice."""
        sol, state = twin[2], twin[3]
        calls = []
        for name in ("project", "advect"):
            def counted(self, *args, _name=name, _method=getattr(Solver, name)):
                calls.append(_name)
                return _method(self, *args)
            monkeypatch.setattr(Solver, name, counted)
        sol.step(state)
        assert sorted(calls) == ["advect"] * 2 + ["project"] * 4

    @pytest.mark.parametrize("width", [3, None])
    def test_delta_zero_slopes_are_the_projected_rotation(self, solver, initial, width):
        """At delta = 0 the slopes start from zero arrays and take the
        rotation terms as at delta != 0: on a 3-column state and on every
        column they are project and _noflux of (sin g b, cos g b,
        -sin g u - cos g w), to 1e-13 of each slope's max."""
        if width is None:
            state = initial.widen()
        else:
            keep = slice(2, 2 + width)
            state = State(*(f[:, keep] for f in (initial.uh, initial.wh, initial.bh,
                                                 initial.ph)),
                          0.0, initial.nx, initial.cols[keep])
        op, state = solver._on(state)
        assert len(op.kx) == (width or solver.grid.nx // 2 + 1)
        sg, cg = math.sin(GAMMA), math.cos(GAMMA)
        u, w, b = state.uh, state.wh, state.bh
        want = (*op.project(sg * b, cg * b)[:2], op._noflux(-sg * u - cg * w))
        for got, f in zip(op._tendency(u, w, b), want):
            assert np.abs(got - f).max() <= 1e-13 * np.abs(f).max()

    def test_axpy(self):
        """y += a x in place on a C-contiguous complex target; any other
        target is refused, as ravel() would copy it and drop the update."""
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 6, 8)) + 1j * rng.standard_normal((2, 6, 8))
        want = y + 0.5 * x
        dns._axpy(0.5, x, y)
        assert np.allclose(y, want, rtol=1e-15, atol=0.0)
        for bad in (np.zeros((6, 16), complex)[:, ::2], np.zeros((6, 8), complex, order="F"),
                    np.zeros((6, 8)), np.zeros((6, 7), complex)):
            before = bad.copy()
            with pytest.raises(ValueError, match="C-contiguous complex target"):
                dns._axpy(0.5, x, bad)
            assert np.array_equal(bad, before)


class TestEnergyBudget:
    def test_linear_run_identity(self, trajectory):
        """delta = 0: energy + 2 * dissipation integral is conserved."""
        bud = energy_budget(trajectory)
        assert np.abs(bud["defect"]).max() <= 1e-3 * trajectory.energy[0]
        # relative to E0 already; 1.4e-5 measured, time-discretization error
        # (3.2e-4, 1.4e-5, 4.4e-7 at dt = 0.02, 0.01, 0.005)
        assert bud["max_step_increase"] <= 3e-5

    def test_energy_decreases(self, trajectory):
        assert trajectory.energy[-1] < trajectory.energy[0]
        assert np.all(trajectory.dissipation > 0.0)

    def test_defect_shrinks_with_dt(self, assembly):
        defect = {}
        for dt in (0.02, 0.01):
            cfg = make_config(Lx=assembly.x_period, dt=dt, T=0.2)
            sol = Solver(cfg)
            st = init_from_Wapp(assembly, None, cfg, sol)
            traj = sol.run(st, int(round(0.2 / dt)))
            defect[dt] = abs(energy_budget(traj)["defect"][-1])
        # second-order stepping: the budget defect drops ~4x per halving
        assert defect[0.02] / defect[0.01] >= 2.5

    def test_nonlinear_energy_non_increasing(self, assembly):
        cfg = make_config(delta=EPS**3, Lx=assembly.x_period, T=0.2)
        sol = Solver(cfg)
        st = init_from_Wapp(assembly, None, cfg, sol)
        bud = energy_budget(sol.run(st, 20))
        assert bud["max_step_increase"] <= 3e-5  # relative; 1.3e-5 measured


class TestCompareStability:
    def test_initial_difference_is_floor_only(self, report):
        # at t = 0 only projection/interpolation/truncation error remains
        assert report["diff_L2"][0] <= 0.05
        assert report["t"][0] == 0.0

    def test_delta_zero_growth_is_eps6(self, report):
        """Without advection the departure grows like eps^6 * t."""
        growth = report["diff_L2"][-1] - report["diff_L2"][0]
        assert growth > 0
        assert growth <= 10.0 * EPS**6 * report["t"][-1]

    def test_report_is_the_run_alone(self, report):
        """The report is this run's departure and the theorem's envelope,
        which is 0 at delta = 0; a twin's floor is its caller's to subtract."""
        assert list(report) == ["t", "diff_L2", "bound_thm"]
        assert all(len(v) == len(report["t"]) for v in report.values())
        assert not report["bound_thm"].any()

    def test_memory_does_not_grow_with_save_count(self, initial, assembly, solver):
        """Each saved state is compared and dropped: 20 save times and 10
        trace the same peak to within one state."""
        compare_stability(solver, 1, 1, assembly)  # the first call's caches
        peak = {}
        for n in (10, 20):
            tracemalloc.start()
            try:
                compare_stability(solver, n, 1, assembly)
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one_state = sum(f.nbytes for f in (initial.uh, initial.wh, initial.bh,
                                           initial.ph))
        assert peak[20] - peak[10] < one_state, (peak, one_state)

    def test_delta_zero_states_are_never_widened(self, initial, assembly, solver,
                                                 monkeypatch):
        """At delta = 0 each saved state is subtracted from W_app on the
        columns it holds: State.widen is never called, and the differences
        equal those against the widened states bit for bit."""
        saved = []
        solver.run(initial, 20, 10, on_save=saved.append)
        assert not saved[-1].full
        every = np.arange(solver.grid.nx // 2 + 1)
        norm0 = math.sqrt(solver.norm2(*WappNodes(assembly, None, solver.grid).place(0.0, every)))
        want = []
        for st in map(State.widen, saved):
            wapp = WappNodes(assembly, None, solver.grid).place(st.t, every)
            want.append(math.sqrt(solver.norm2(
                *(a - f for a, f in zip(wapp, (st.uh, st.wh, st.bh))))) / norm0)

        def refuse(state):
            raise AssertionError("compare_stability widened a saved state")

        monkeypatch.setattr(State, "widen", refuse)
        rep = compare_stability(solver, 20, 10, assembly)[1]
        assert rep["diff_L2"].tolist() == want

    @pytest.mark.parametrize("n_steps,save_every", [(7, 3), (10, 1)])
    def test_stacked_passes_match_per_save_placement(self, twin, monkeypatch,
                                                     n_steps, save_every):
        """delta != 0 with W1 (5 nodes per lobe): diff_L2 equals a per-save
        loop of fresh WappNodes exactly, on a schedule save_every does not divide
        (saves at 0, 3, 6 and 7 dt) and on 11 save times.  A call builds
        W0's and W1's node tables once each, whatever the number of saves:
        one node_profiles pass each for W0 and W1's modal families, and one
        CorrectorAssembly.node_table."""
        asm, w1, sol, st = twin
        g = sol.grid
        saved = []
        sol.run(st, n_steps, save_every, on_save=saved.append)
        every = np.arange(g.nx // 2 + 1)
        norm0 = math.sqrt(sol.norm2(*WappNodes(asm, w1, g).place(0.0, every)))
        want = [math.sqrt(sol.norm2(*(a - f for a, f in zip(
                    WappNodes(asm, w1, g).place(s.t, every), (s.uh, s.wh, s.bh))))) / norm0
                for s in saved]

        passes = {"nodes": [], "W1": 0, "mode_profiles": 0}
        node_profiles, node_table = dns.node_profiles, corrector.CorrectorAssembly.node_table

        def counted_nodes(modes, y):
            passes["nodes"].append(len(modes))
            return node_profiles(modes, y)

        def counted_w1(*args):
            passes["W1"] += 1
            return node_table(*args)

        def refused(*args):
            passes["mode_profiles"] += 1

        monkeypatch.setattr(dns, "node_profiles", counted_nodes)
        monkeypatch.setattr(corrector, "node_profiles", counted_nodes)
        monkeypatch.setattr(corrector.CorrectorAssembly, "node_table", counted_w1)
        monkeypatch.setattr(corrector, "mode_profiles", refused)
        rep = compare_stability(sol, n_steps, save_every, asm, w1)[1]
        assert rep["diff_L2"].tolist() == want
        assert len(saved) > 3
        assert passes == {"nodes": [len(asm.bundle(Family.SUM)), len(w1.modal())],
                          "W1": 1, "mode_profiles": 0}

    def test_init_places_the_first_save(self, twin, monkeypatch):
        """The initial state's W_app(0), placed before its projection, is the
        first save's W_app in compare_stability, bit for bit."""
        asm, w1, sol = twin[:3]
        placed, place = [], WappNodes.place

        def kept(*args):
            out = place(*args)
            placed.append(out.copy())  # compare_stability subtracts in out
            return out

        monkeypatch.setattr(WappNodes, "place", kept)
        compare_stability(sol, 1, 1, asm, w1)
        assert len(placed) == 3 and placed[0].any()
        assert placed[0].tobytes() == placed[1].tobytes()

    def test_mean_flow_theta_once_per_call(self, twin, monkeypatch):
        """W1_MF's theta and theta' are evaluated once per call, in its one
        WappNodes, not once per save."""
        asm, w1, sol = twin[:3]
        calls = []
        for name in ("_theta", "_theta_prime"):
            monkeypatch.setattr(corrector, name, lambda s, f=getattr(corrector, name),
                                name=name: calls.append(name) or f(s))
        rep = compare_stability(sol, 3, 1, asm, w1)[1]
        assert len(rep["t"]) == 4 and sorted(calls) == ["_theta", "_theta_prime"]

    def test_twin_reads_w1_tables_only_where_w1_is_placed(self, twin, monkeypatch):
        """stability_twin phase-sums W1's one node table where W_app is
        placed alone, at the run's start and at each of 3 saves (4 times),
        and W0's table there and for the twin's W0 too (8 times)."""
        asm, w1, sol = twin[:3]
        built, wapp_nodes = [], dns._wapp_nodes
        reads, phase_sum = collections.Counter(), dns.phase_sum

        def counted(*args):
            reads[id(args[2])] += 1  # the table's Q
            return phase_sum(*args)

        monkeypatch.setattr(dns, "_wapp_nodes",
                            lambda *args: built.append(wapp_nodes(*args)) or built[-1])
        monkeypatch.setattr(dns, "phase_sum", counted)
        rep = dns.stability_twin(sol, 2, 1, asm, w1)
        assert len(rep["t"]) == 3 and len(built) == 1
        assert [reads[id(Q)] for *_, Q in built[0].tables] == [8, 4]
        assert sum(reads.values()) == 12

    def test_subset_saves_are_placed_on_their_columns(self, initial, assembly,
                                                      solver, monkeypatch):
        """At delta = 0 W_app is placed on the saved states' own columns
        alone, at every save: only the initial state's W_app(0), before its
        columns are chosen, spans every rfft column."""
        widths, place = [], WappNodes.place

        def spied(*args):
            out = place(*args)
            widths.append(out.shape[2])
            return out

        monkeypatch.setattr(WappNodes, "place", spied)
        compare_stability(solver, 2, 1, assembly)
        assert not initial.full
        assert widths == [solver.grid.nx // 2 + 1] + [len(initial.cols)] * 3

    def test_columns_lacking_wapp_are_refused(self, initial, assembly, solver):
        """Placing W_app's x-groups among columns that lack one W_app reaches
        (a delta = 0 state's held columns but the first) is refused, with the
        column named."""
        nodes = WappNodes(assembly, None, solver.grid)
        with pytest.raises(DnsError, match=f"^W_app reaches rfft column {initial.cols[0]}, "):
            nodes.place(0.0, initial.cols[1:])

    def test_bound_shapes(self, assembly, solver):
        cfg = make_config(delta=EPS**3, Lx=assembly.x_period, T=0.1)
        p = cfg.params
        sol = Solver(cfg)
        rep = compare_stability(sol, 10, 5, assembly)[1]
        thm = rep["bound_thm"]
        assert thm[0] == pytest.approx(p.delta * EPS**2)
        assert np.all(np.diff(thm) > 0)


#: stability-twin's seed-0 packet: gamma, and eps box-matched at 5 nodes per lobe
TWIN_GAMMA = 0.7344421851525048
TWIN_EPS = box_matched_eps(0.2041, 1.0, 5)


def _twin_residuals(asm, w1, dt, save_every, T=0.4):
    """dns.stability_twin of W_app(0) at delta = eps^3 to T on a 512 x 384
    grid to Ly = 300, its run and delta = 0 twin in lockstep: at every
    save_every-th step t, its twin_resid ||W_delta - W_0 - W1|| and ||W1||,
    both over ||W_app(0)||, W1(t) as W_app(t) less W0(t), each placed on
    every rfft column (WappNodes.place)."""
    config = SimConfig(params=w1.params, Lx=asm.x_period, Ly=300.0, nx=512, ny=384,
                       dy0=1e-3, dy_max=1.0, dt=dt, T=T)
    sol = Solver(config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the packet reaches the lid
        rep = dns.stability_twin(sol, int(round(T / dt)), save_every, asm, w1)
    nodes = WappNodes(asm, w1, sol.grid)
    every = np.arange(config.nx // 2 + 1)
    norm0 = math.sqrt(sol.norm2(*nodes.place(0.0, every)))
    w1_norm = [math.sqrt(sol.norm2(*(nodes.place(t, every) - nodes.place(t, every, 1))))
               / norm0 for t in rep["t"]]
    return rep["t"], rep["twin_resid"], np.array(w1_norm)


@pytest.fixture(scope="module")
def twin_residuals():
    """_twin_residuals at dt 0.02 (saves every 0.1) and at twice that dt
    (t = 0 and T alone), delta = eps^3, 5 nodes per lobe."""
    p = PhysParams(gamma=TWIN_GAMMA, eps=TWIN_EPS, delta=TWIN_EPS**3)
    asm = assemble_W0(p, Envelope(carrier=critical_carrier(TWIN_GAMMA, 1.0), eps=TWIN_EPS),
                      QuadratureSpec(5))
    w1 = assemble_W1(asm)
    return {dt: _twin_residuals(asm, w1, dt, every) for dt, every in ((0.02, 5), (0.04, 10))}


class TestTwinResidual:
    """The DNS measures W1 directly: W_delta - W_0 - W1, the twin residual,
    is driven by the corrector's residual alone, and every error the two
    runs share (the lid cut, the discretization of W0) cancels.  Measured:
    6.3e-7 at t = 0 (W1's projection), 3.376e-3 at T = 0.4, 7.9 % of
    ||W1(T)||, growing as t^0.988; dt 0.04 reads 5.2e-4 more at T, and dt
    0.01 1.3e-4 less, as a second-order march gives."""

    def test_initial_residual_is_w1s_projection(self, twin_residuals):
        t, resid, _ = twin_residuals[0.02]
        assert t[0] == 0.0 and resid[0] <= 1e-5

    def test_residual_is_a_small_share_of_w1(self, twin_residuals):
        """W1 = 0 would give a share of 1, and W1 with the wrong sign 2."""
        t, resid, w1 = twin_residuals[0.02]
        assert t[-1] == pytest.approx(0.4)
        assert resid[-1] <= 0.16 * w1[-1]

    def test_residual_grows_linearly(self, twin_residuals):
        """Duhamel: a residual forced at a steady rate grows like t."""
        t, resid, _ = twin_residuals[0.02]
        exponent = np.polyfit(np.log(t[1:]), np.log(resid[1:]), 1)[0]
        assert 0.9 <= exponent <= 1.1, exponent

    def test_residual_is_converged_in_dt(self, twin_residuals):
        """Halving dt from 0.04 to 0.02 moves the residual at T by a small
        fraction of itself (dt 0.01 would cost 40 more nx 512 steps)."""
        coarse, fine = twin_residuals[0.04][1][-1], twin_residuals[0.02][1][-1]
        assert twin_residuals[0.04][0][-1] == pytest.approx(0.4)
        assert abs(coarse - fine) <= 2e-3 * fine


class TestLinearFidelity:
    def test_eps2_layer_matches_packet(self, trajectory, assembly, solver):
        """delta = 0 at t = 0.5: the field in the eps^2 layer is the packet.

        All modal decays are exact solutions of the linear viscous system,
        so only discretization error remains; measured against the L2 norm
        of the eps^2 boundary-layer family in the layer.
        """
        g = solver.grid
        final = trajectory.final
        ua, wa, ba = evaluate_packet(assembly, Family.SUM, final.t, (g.x, g.y))
        lam2 = assembly.families[Family.BLEPS2].mu.real.min()
        mask = (g.y <= 3.0 / lam2)[:, None]
        num = g.integral(((ua - final.u) ** 2 + (wa - final.w) ** 2
                          + (ba - final.b) ** 2) * mask)
        bl2 = assembly.bundle(Family.BLEPS2)
        layer = bl2.scaled(np.exp(-1j * bl2.alpha * final.t))
        # the layer is cut at 3 decay lengths on purpose
        with pytest.warns(UserWarning, match="truncation"):
            l2, _ = packet_norms(layer, (g.x, g.y[mask[:, 0]]))
        assert math.sqrt(num) / math.hypot(*l2) <= 0.02
