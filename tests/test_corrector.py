"""Nonlinear corrector: interaction table, interior solves, lifts, residual."""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import simpson

from wavecrit import boundary
from wavecrit import corrector as C
from wavecrit.boundary import (IllConditionedLiftError, RegimeError, lift_noncritical,
                               lift_nonoscillating)
from wavecrit.characteristic import ModalMatrixSpec, roots_for
from wavecrit.dns import stretched_grid
from wavecrit.packets import Envelope, Family, QuadratureSpec, assemble_W0
from wavecrit.params import PhysParams, critical_carrier, dispersion_omega

GAMMA = 0.7
CARRIER = critical_carrier(GAMMA, 1.0)


def make_w0(eps, gamma=GAMMA, nodes=5, delta=None):
    p = PhysParams(gamma=gamma, eps=eps, delta=eps**3 if delta is None else delta)
    car = critical_carrier(gamma, 1.0)
    return assemble_W0(p, Envelope(carrier=car, eps=eps), QuadratureSpec(nodes)), p


@pytest.fixture(scope="module")
def w0():
    return make_w0(0.2)


@pytest.fixture(scope="module")
def casm(w0):
    asm, _ = w0
    return C.assemble_W1(asm)


def lift_rows(asm, batches, rows):
    """W1 lifted from the batches of the named interaction rows alone."""
    return C._lift_batches(asm, [b for b in batches if b[0].name in rows])


def born_of_no_pair(m):
    """Mask of the modes whose parents are (mu, 0): lifts, W0 and the like."""
    return (m.parents == np.stack([m.mu, np.zeros_like(m.mu)], axis=1)).all(axis=1)


class TestInteractionTable:
    def test_nine_ordered_rows(self):
        rows = C.INTERACTIONS
        assert [r.name for r in rows] == [
            "a1", "a2", "b1", "b2", "b3", "c1", "c2", "c3", "c4"
        ]
        assert rows[0].left is Family.BLEPS2 and rows[0].right is Family.BLEPS2
        assert rows[-1].left is Family.BLEPS3 and rows[-1].right is Family.INCIDENT
        assert {r.kind for r in rows} == {"a", "b", "c"}
        assert all(r.kind == "c" for r in rows[5:])

    def test_sizes_decrease_down_the_table(self):
        rows = C.INTERACTIONS
        powers = [r.l2_power for r in rows]
        assert powers == sorted(powers)

    def test_lobe_partition(self, w0):
        asm, _ = w0
        for it in C.INTERACTIONS:
            pairs = C.enumerate_pairs(asm, it)
            assert set(pairs) == {C.Lobe.ZERO, C.Lobe.DOUBLE}
            n_left = len(asm.bundle(it.left))
            n_right = len(asm.bundle(it.right))
            assert sum(len(m) for m in pairs.values()) == 2 * n_left * n_right

    def test_lobe_windows(self, w0):
        asm, p = w0
        eps2 = p.eps**2
        for it in C.INTERACTIONS:
            for lobe, b in C.enumerate_pairs(asm, it).items():
                if lobe is C.Lobe.ZERO:
                    assert np.abs(b.l).max() <= 3 * eps2
                    assert np.abs(b.alpha).max() <= 3 * eps2
                else:
                    assert np.abs(b.l - 2 * CARRIER.k0).max() <= 3 * eps2
                    assert np.abs(b.alpha - 2 * CARRIER.omega0).max() <= 3 * eps2

    def test_decaying_pairs_have_positive_rate(self, w0):
        asm, _ = w0
        for it in C.INTERACTIONS:
            if it.left is Family.INCIDENT and it.right is Family.INCIDENT:
                continue  # no boundary-layer mode in the pair
            for b in C.enumerate_pairs(asm, it).values():
                assert b.mu.real.min() > 0.0

    @pytest.mark.parametrize("lobe", [C.Lobe.DOUBLE, C.Lobe.ZERO])
    def test_lobe_guard_names_first_stray_pair(self, w0, lobe):
        """Pairs shifted out of their lobe's eps^2 window are refused, and the
        error names the first of them."""
        asm, p = w0
        it = C.INTERACTIONS[0]
        pairs = C.enumerate_pairs(asm, it)[lobe]
        C._check_lobe(it.name, lobe, pairs, asm)
        shift = np.where(np.arange(len(pairs)) >= 3, 6 * p.eps**2, 0.0)
        stray = dataclasses.replace(pairs, l=pairs.l + shift)
        node = f"(l={stray.l[3]:.4g}, alpha={stray.alpha[3]:.4g})"
        with pytest.raises(C.CorrectorError, match=re.escape(node)):
            C._check_lobe(it.name, lobe, stray, asm)


def _mode_field(k, omega, lam, vec, x, y):
    """(u, w, b) of vec * exp(ikx - i omega t - lam y) at t = 0 (one-sided)."""
    m = np.exp(np.subtract.outer(-lam * y, -1j * k * x))
    return tuple(c * m for c in vec)


class TestQuadraticQ:
    P = 2 * math.pi

    def grid(self, ny=1200, ymax=3.0):
        x = np.linspace(0.0, self.P, 48, endpoint=False)
        y = np.linspace(0.0, ymax, ny)
        return x, y

    def test_zero_left_is_zero(self):
        x, y = self.grid(200)
        zero = tuple(np.zeros((len(y), len(x))) for _ in range(3))
        f = tuple(np.random.default_rng(0).normal(size=(len(y), len(x))) for _ in range(3))
        out = C.quadratic_Q(zero, f, x, y)
        assert all(np.abs(c).max() == 0.0 for c in out)

    def test_constant_right_is_zero(self):
        x, y = self.grid(200)
        f = tuple(np.full((len(y), len(x)), v) for v in (0.3, -0.1, 0.7))
        out = C.quadratic_Q(f, f, x, y)
        assert all(np.abs(c).max() <= 1e-13 for c in out)

    def test_grid_mismatch_rejected(self):
        x, y = self.grid(50)
        f = tuple(np.zeros((len(y), len(x))) for _ in range(3))
        g = tuple(np.zeros((len(y) + 1, len(x))) for _ in range(3))
        with pytest.raises(ValueError):
            C.quadratic_Q(f, g, x, y)

    def test_single_pair_matches_hand_expansion(self):
        """Q of two exponential modes equals the convective-factor formula."""
        x, y = self.grid()
        k1, k2 = 2.0, 3.0  # integer multiples of 2 pi / P: spectral dx exact
        lam1, lam2 = 0.9 + 0.4j, 1.3 - 0.2j
        v1 = (0.7 + 0.1j, -0.2 + 0.3j, 0.5)
        v2 = (0.4, 0.6 - 0.5j, -0.3 + 0.2j)
        left = _mode_field(k1, 0.0, lam1, v1, x, y)
        right = _mode_field(k2, 0.0, lam2, v2, x, y)
        got = C.quadratic_Q(left, right, x, y)
        cc = 1j * k2 * v1[0] - lam2 * v1[1]
        combined = _mode_field(k1 + k2, 0.0, lam1 + lam2, v2, x, y)
        for g, c in zip(got, combined):
            want = cc * c
            err = np.abs(g[2:-2] - want[2:-2]).max()
            assert err <= 1e-8 * np.abs(want).max()

    def test_energy_identity(self):
        """int Q(W,W).W = 0 for divergence-free W with w = 0 at the wall."""
        x, y = self.grid(ny=1601, ymax=14.0)
        X, Y = np.meshgrid(x, y)
        psi = np.sin(X) * Y**3 * np.exp(-Y)
        u = np.sin(X) * (3 * Y**2 - Y**3) * np.exp(-Y)  # d_y psi
        w = -np.cos(X) * Y**3 * np.exp(-Y)  # -d_x psi
        b = np.cos(2 * X) * Y**2 * np.exp(-Y)
        W = (u, w, b)
        q = C.quadratic_Q(W, W, x, y)
        dens = sum(qc * wc for qc, wc in zip(q, W))
        size = sum(np.abs(qc) * np.abs(wc) for qc, wc in zip(q, W))
        dx = x[1] - x[0]
        total = simpson(dens.sum(axis=1) * dx, x=y)
        scale = simpson(size.sum(axis=1) * dx, x=y)
        assert abs(total) <= 1e-7 * scale


def _batch_residual_a(src, modes, p):
    """Residual of (-i alpha + L)(cu, cb) = forcing for the reduced solve."""
    sg = math.sin(p.gamma)
    ru = -1j * src.alpha * modes.cu - sg * modes.cb - src.cu
    rb = -1j * src.alpha * modes.cb + sg * modes.cu - src.cb
    scale = max(np.abs(src.cu).max(), np.abs(src.cb).max(), 1e-300)
    return max(np.abs(ru).max(), np.abs(rb).max()) / scale


def _batch_residual_b(src, modes, p):
    sg = math.sin(p.gamma)
    mbar2 = (src.mu * p.eps**3) ** 2
    ru = (-1j * src.alpha - p.nu0 * mbar2) * modes.cu - sg * modes.cb - src.cu
    rb = sg * modes.cu + (-1j * src.alpha - p.kappa0 * mbar2) * modes.cb - src.cb
    scale = max(np.abs(src.cu).max(), np.abs(src.cb).max(), 1e-300)
    return max(np.abs(ru).max(), np.abs(rb).max()) / scale


def _forcing(asm, p, name, lobe=C.Lobe.DOUBLE):
    """The interior forcing of one interaction row and lobe."""
    it = next(r for r in C.INTERACTIONS if r.name == name)
    return C.enumerate_pairs(asm, it)[lobe].scaled(-p.delta)


class TestInteriorSolves:
    def test_a_insertion_residual(self, w0):
        asm, p = w0
        for name in ("a1", "a2"):
            for lobe in C.Lobe:
                src = _forcing(asm, p, name, lobe)
                modes = C.solve_interior_a(src, p)
                assert _batch_residual_a(src, modes, p) <= 1e-10

    def test_b_insertion_residual(self, w0):
        asm, p = w0
        for name in ("b1", "b2", "b3"):
            for lobe in C.Lobe:
                src = _forcing(asm, p, name, lobe)
                modes = C.solve_interior_b(src, p)
                assert _batch_residual_b(src, modes, p) <= 1e-10

    def test_zero_forcing_gives_zero(self, w0):
        asm, p = w0
        modes = C.solve_interior_a(_forcing(asm, p, "a1").scaled(0.0), p)
        assert np.abs(modes.cu).max() == 0.0
        assert np.abs(modes.cw).max() == 0.0

    def test_divergence_restoration_exact(self, casm):
        for fam in (C.W1_BLEPS2, C.W1_BLEPS3, C.W1_II):
            m = casm.families[fam]
            div = 1j * m.l * m.cu - m.mu * m.cw
            scale = np.abs(m.l * m.cu).max()
            assert np.abs(div).max() <= 1e-12 * max(scale, 1e-300)

    def test_resonance_guard(self, w0):
        asm, p = w0
        src = _forcing(asm, p, "a1")
        src = dataclasses.replace(src, alpha=np.full_like(src.alpha, math.sin(p.gamma)))
        with pytest.raises(C.CorrectorError):  # exact resonance
            C.solve_interior_a(src, p)

    def test_b_det_guard(self, w0):
        asm, p = w0
        src = _forcing(asm, p, "b1")
        # mbar ~ 0: det = sin^2 - alpha^2 ~ 0
        src = dataclasses.replace(src, alpha=np.full_like(src.alpha, math.sin(p.gamma)),
                                  mu=np.full_like(src.mu, 1e-6))
        with pytest.raises(C.CorrectorError):
            C.solve_interior_b(src, p)

    def test_b_inviscid_reduction(self, w0):
        """alpha = 0, nu0 = kappa0: M^-1 = [[-n m^2, -sg], [sg, -n m^2]]."""
        asm, p = w0
        src = _forcing(asm, p, "b2")
        src = dataclasses.replace(src, alpha=np.zeros_like(src.alpha))
        modes = C.solve_interior_b(src, p)
        sg = math.sin(p.gamma)
        nm2 = p.nu0 * (src.mu * p.eps**3) ** 2
        det = nm2**2 + sg**2
        want_cu = (-nm2 * src.cu + sg * src.cb) / det
        assert np.abs(modes.cu - want_cu).max() <= 1e-12 * np.abs(want_cu).max()

    def test_normal_velocity_smaller_by_layer_width(self):
        """The restored w of the eps^-2 families is ~ eps^2 of u."""
        ratios = []
        for eps in (0.3, 0.15):
            asm, _ = make_w0(eps)
            cas = lift_rows(asm, C._solved_batches(asm), ("a1", "a2"))
            m = cas.families[C.W1_BLEPS2]
            uo = C.ExpModes(m.l, m.alpha, m.mu, m.cu, np.zeros_like(m.cw),
                            np.zeros_like(m.cb))
            wo = C.ExpModes(m.l, m.alpha, m.mu, np.zeros_like(m.cu), m.cw,
                            np.zeros_like(m.cb))
            ratios.append(C.modes_norms(wo, cas.x_period)[0]
                          / C.modes_norms(uo, cas.x_period)[0])
        slope = (math.log(ratios[0]) - math.log(ratios[1])) / math.log(2.0)
        assert abs(slope - 2.0) <= 0.5, slope

    @pytest.mark.parametrize("family,target", [(C.W1_BLEPS2, 0.0), (C.W1_BLEPS3, 0.5)])
    def test_interior_norm_slopes_at_fixed_delta(self, family, target):
        """Row-wise sizes: eps^-2 family O(delta), eps^-3 family O(delta eps^1/2)."""
        rows = ("a1", "a2") if family == C.W1_BLEPS2 else ("b1", "b2", "b3")
        norms = []
        eps_list = (0.3, 0.2, 0.1)
        for eps in eps_list:
            asm, _ = make_w0(eps, delta=1e-3)
            total = 0.0
            batches = C._solved_batches(asm)
            for r in rows:
                cas = lift_rows(asm, batches, (r,))
                total += cas.norms(family)[0]
            norms.append(total)
        slope = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
        assert abs(slope - target) <= 0.3, slope


class TestCollectTraces:
    def test_zero_modes_zero_traces(self):
        tr = C.collect_traces(C.ExpModes.empty())
        assert all(len(t) == 0 for t in tr)

    def test_traces_match_grid_evaluation(self, casm):
        """Summed trace coefficients reproduce the wall field, rtol 1e-8."""
        m = casm.families[C.W1_BLEPS2]
        x = np.linspace(0.0, casm.x_period, 128, endpoint=False)
        u, w, _ = C.evaluate_modes(m, 0.0, x, np.array([0.0]))
        tu, tw, _ = m.traces()
        want_u = np.zeros(128, dtype=complex)
        want_w = np.zeros(128, dtype=complex)
        for n in range(len(m)):
            ph = np.exp(1j * m.l[n] * x)
            want_u += tu[n] * ph
            want_w += tw[n] * ph
        assert np.abs(u[0] - (want_u + want_u.conj())).max() <= 1e-8 * np.abs(u).max()
        assert np.abs(w[0] - (want_w + want_w.conj())).max() <= 1e-8 * max(np.abs(w).max(), 1e-300)

    def test_trace_density_scalings(self):
        """Raw center-node wall traces grow like (eps^-4, eps^-2, eps^-6)."""
        eps_list = [0.3, 0.2, 0.15, 0.1]
        dens = []
        for eps in eps_list:
            asm, _ = make_w0(eps)
            dens.append(C.trace_density(asm))
        dens = np.array(dens)
        loge = np.log(eps_list)
        for col, target in ((0, -4.0), (1, -2.0), (2, -6.0)):
            slope = np.polyfit(loge, np.log(dens[:, col]), 1)[0]
            assert abs(slope - target) <= 0.4, (col, slope)


def _largest_node(modes, lobe):
    """Indices of the modes at the most populated (l, alpha) node of a lobe
    (l != 0, so the zero lobe goes through the non-oscillating lift).  The
    zero lobe has |l| = O(eps^2), the double lobe l near 2 k0."""
    in_lobe = (np.abs(modes.l) < CARRIER.k0) == (lobe is C.Lobe.ZERO)
    sel = np.flatnonzero(in_lobe & (modes.l != 0.0))
    _, inv, counts = np.unique(np.stack([modes.l[sel], modes.alpha[sel]], axis=1),
                               axis=0, return_inverse=True, return_counts=True)
    return sel[inv.ravel() == np.argmax(counts)]


def _lift_amplitudes(lift, spec, tu, tw, tb):
    """Mode amplitudes of one lift of the trace (tu, tw, tb), and the
    non-oscillating lift's leftover w-trace (0 for the non-critical one)."""
    out = lift(spec, [[-tu], [-tw], [-tb]])
    modes, leftover = (C.ExpModes.concat(out), [0.0]) if lift is lift_noncritical else out
    # U = 1, so the cu are the amplitudes
    return modes.cu, leftover[0]


class TestLiftOnce:
    """Wall traces are summed per distinct (l, alpha) node and lifted once."""

    def test_counts_at_reference_case(self, w0, monkeypatch):
        """9 surviving W0 nodes: 45 double-lobe and 54 zero-lobe (l != 0)
        nodes, one root solve each."""
        asm, _ = w0
        assert len(asm.families[Family.INCIDENT]) == 9
        calls = []

        def counted(spec):
            calls.append(spec)
            return roots_for(spec)

        monkeypatch.setattr(boundary, "roots_for", counted)
        cas = C.assemble_W1(asm)
        assert sum(np.size(spec.omega) for spec in calls) == 99
        assert len(cas.families[C.W1_II]) == 45
        assert len(cas.families[C.W1_MF]) == 54
        assert len(cas.families[C.W1_BLEPS3]) == 1046

    def test_one_eigensolve_per_lobe(self, w0, monkeypatch):
        """The 99 lifted nodes get their roots from at most two stacked
        companion eigensolves, one per lobe (the l = 0 shear lifts use their
        own quartic and are not counted)."""
        asm, _ = w0
        stacks = []
        eigvals = np.linalg.eigvals

        def counted(a):
            stacks.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        C.assemble_W1(asm)
        assert len(stacks) <= 2
        assert sum(s[0] for s in stacks if s[-2:] == (6, 6) and len(s) == 3) == 99

    @pytest.mark.parametrize("lobe", [C.Lobe.DOUBLE, C.Lobe.ZERO])
    def test_summed_trace_lift_equals_sum_of_pair_lifts(self, w0, casm, lobe):
        """Lift linearity at the most populated node, rtol 1e-12."""
        _, p = w0
        interior = casm.families[C.W1_BLEPS2]
        idx = _largest_node(interior, lobe)
        assert len(idx) > 1
        l, alpha = interior.l[idx[0]], interior.alpha[idx[0]]
        spec = ModalMatrixSpec(p.nu, p.kappa, alpha, l, p.gamma)
        lift = lift_noncritical if lobe is C.Lobe.DOUBLE else lift_nonoscillating
        tu, tw, tb = (t[idx] for t in interior.traces())
        per_pair = [_lift_amplitudes(lift, spec, *tr) for tr in zip(tu, tw, tb)]
        want_a = sum(a for a, _ in per_pair)
        want_left = sum(left for _, left in per_pair)

        nl, na, su, sw, sb = C.collect_traces(interior[idx])
        assert nl.tolist() == [l] and na.tolist() == [alpha]
        got_a, got_left = _lift_amplitudes(lift, spec, su[0], sw[0], sb[0])
        assert np.abs(got_a - want_a).max() <= 1e-12 * np.abs(want_a).max()
        if lobe is C.Lobe.ZERO:
            assert abs(got_left - want_left) <= 1e-12 * abs(want_left)


class TestProfileNorms:
    """_profile_norms against a brute-force field at the reference case: on
    the same y, on a 1024-point x-grid over one period, built mode by mode
    (node by node for the mean flow) without grouping by wavenumber."""

    NX = 1024

    def brute(self, fields, y, x_period):
        dens = sum(f**2 for f in fields).sum(axis=1) * (x_period / self.NX)
        return math.sqrt(np.trapezoid(dens, y)), max(np.abs(f).max() for f in fields)

    def test_mode_set(self, casm):
        """W1_BLeps3 has +-l group pairs and l = 0 shear groups."""
        P = casm.x_period
        m = casm.families[C.W1_BLEPS3]
        assert (m.l == 0.0).any() and np.isin(-m.l[m.l > 0], m.l).any()
        y = C._norm_lattice(m, P, 600).y
        x = np.linspace(0.0, P, self.NX, endpoint=False)
        t = 0.3
        ey = np.exp(-np.outer(y, m.mu))
        ex = np.exp(1j * (np.outer(m.l, x) - (m.alpha * t)[:, None]))
        fields = [2.0 * ((ey * c) @ ex).real for c in (m.cu, m.cw, m.cb)]
        want_l2, want_linf = self.brute(fields, y, P)
        dx = [2.0 * ((ey * c) @ (1j * m.l[:, None] * ex)).real for c in (m.cu, m.cw, m.cb)]
        l2, linf, dx_l2 = C._profile_norms(*C.mode_profiles(m, t, y), y, P, self.NX)
        assert abs(l2 - want_l2) <= 1e-12 * want_l2
        assert linf == pytest.approx(want_linf, rel=1e-12, abs=0.0)
        want_dx = self.brute(dx, y, P)[0]
        assert abs(dx_l2 - want_dx) <= 1e-12 * want_dx

    def test_mean_flow(self, casm):
        """W1_MF nodes share l at different alpha: G is summed per l."""
        P = casm.x_period
        mf = casm.families[C.W1_MF]
        assert len(np.unique(mf.l)) < len(mf)
        e2 = mf.eps**2
        y = np.linspace(0.0, 2.5 / e2, 800)
        x = np.linspace(0.0, P, self.NX, endpoint=False)
        t = 0.3
        ph = np.exp(1j * (np.outer(x, mf.l) - mf.alpha * t))
        g = 2.0 * (ph @ mf.G).real
        gx = 2.0 * (ph @ (1j * mf.l * mf.G)).real
        fields = [-e2 * np.outer(C._theta_prime(e2 * y), g),
                  np.outer(C._theta(e2 * y), gx)]
        want_l2, want_linf = self.brute(fields, y, P)
        gxx = 2.0 * (ph @ (-mf.l**2 * mf.G)).real
        dx = [-e2 * np.outer(C._theta_prime(e2 * y), gx), np.outer(C._theta(e2 * y), gxx)]
        l2, linf, dx_l2 = C._profile_norms(*mf.profiles(t, y), y, P, self.NX)
        assert abs(l2 - want_l2) <= 1e-12 * want_l2
        assert linf == pytest.approx(want_linf, rel=1e-12, abs=0.0)
        want_dx = self.brute(dx, y, P)[0]
        assert abs(dx_l2 - want_dx) <= 1e-12 * want_dx
        # the ledger's read is the same rule at t = 0
        assert mf.norms(P, self.NX) == C._profile_norms(*mf.profiles(0.0, y), y, P, self.NX)


def _gram_l2(modes, x_period, y_max):
    """L2 at t = 0 over one x-period and y in [0, y_max] in closed form.

    Per x-frequency group g, int_0^Y conj(P_g) P_g dy = sum_ij conj(c_i) c_j
    (1 - e^(-s Y))/s with s = conj(mu_i) + mu_j, summed over (u, w, b); a
    group whose -l is also a group h adds int_0^Y P_g P_h dy, the same sum
    without the conjugates.  O(g^2) per group: a test oracle only.
    """
    groups = boundary._group_by_l(modes.l)
    l = modes.l[[g[0] for g in groups]]
    coef = np.stack([modes.cu, modes.cw, modes.cb])
    decay = np.exp(-modes.mu * y_max)

    def gram(i, j, conj):
        mu, c, d = modes.mu[i], coef[:, i], decay[i]
        if conj:
            mu, c, d = mu.conj(), c.conj(), d.conj()
        k = (1.0 - np.outer(d, decay[j])) / np.add.outer(mu, modes.mu[j])
        return np.sum(c * (coef[:, j] @ k.T)).real

    total = sum(gram(g, g, True) for g in groups)
    tol = boundary._l_tolerance(modes.l)
    for g, lg in zip(groups, l):
        h = np.flatnonzero(np.abs(l + lg) <= tol)
        if len(h):
            total += gram(g, groups[h[0]], False)
    return math.sqrt(2.0 * total * x_period)


#: corrector-ledger's seed-0 sweep (gamma, eps at 6 nodes/lobe)
LEDGER_GAMMA = 0.7344421851525048
LEDGER_EPS = (0.25386931604410456, 0.17914217307297312, 0.11826420060210933)


class TestGramOracle:
    """The ledger's y-rule against the closed-form Gram sum over the same
    range [0, y_max] (ROADMAP item 2(a)): the values of modes_norms as they
    are, with their measured distances to the exact integral."""

    #: bound on |L2 / oracle - 1| per modal W1 family: >= 2x the largest
    #: distance measured on the four cases below (2.85e-5, 9.12e-5, 1.55e-4)
    BAND = {C.W1_BLEPS2: 6e-5, C.W1_BLEPS3: 2e-4, C.W1_II: 3.2e-4}

    @pytest.mark.parametrize("gamma,eps,nodes", [
        *((LEDGER_GAMMA, e, 6) for e in LEDGER_EPS), (GAMMA, 0.2, 9)])
    def test_modal_l2_within_band_of_oracle(self, gamma, eps, nodes):
        asm, _ = make_w0(eps, gamma=gamma, nodes=nodes)
        casm = C.assemble_W1(asm)
        P = casm.x_period
        for fam, band in self.BAND.items():
            m = casm.families[fam]
            exact = _gram_l2(m, P, C._norm_lattice(m, P, C._NORM_NY).y[-1])
            assert abs(C.modes_norms(m, P, None)[0] / exact - 1.0) <= band, fam

    def test_oracle_is_the_limit_of_the_trapezoid_rule(self):
        """A uniform trapezoid rule on [0, y_max] closes on the oracle as
        h^2: 10x the points, 100x closer (1.8e-6, then 1.8e-8 on W1_II)."""
        asm, _ = make_w0(LEDGER_EPS[0], gamma=LEDGER_GAMMA, nodes=6)
        casm = C.assemble_W1(asm)
        P, m = casm.x_period, casm.families[C.W1_II]
        y_max = C._norm_lattice(m, P, C._NORM_NY).y[-1]
        exact = _gram_l2(m, P, y_max)
        dist = []
        for n in (10_001, 100_001):
            y = np.linspace(0.0, y_max, n)
            dist.append(C._profile_norms(*C.mode_profiles(m, 0.0, y), y, P, None)[0] / exact - 1)
        assert 0.0 < dist[1] <= 4e-8 and dist[0] / dist[1] == pytest.approx(100.0, rel=0.01)


class TestPairColumns:
    """Pair-born modes build their y-columns from a table of parent rates."""

    @pytest.mark.parametrize("family", [C.W1_BLEPS2, C.W1_BLEPS3])
    def test_profiles_match_direct_path(self, casm, family):
        """W1_BLeps2 is all pair modes; W1_BLeps3 mixes pair and lift modes."""
        m = casm.families[family]
        pair = ~born_of_no_pair(m)
        assert pair.any() and (family == C.W1_BLEPS2) == pair.all()
        y = C._norm_lattice(m, casm.x_period, 600).y
        _, got = C.mode_profiles(m, 0.3, y)
        _, want = C.mode_profiles(dataclasses.replace(m, parents=None), 0.3, y)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("family", [C.W1_BLEPS3, Family.SUM])
    def test_profiles_match_the_per_mode_oracle(self, w0, casm, family):
        """W1_BLeps3 (pair and lift modes mixed) and W0's SUM bundle against
        sum_n c_n e^(-i alpha_n t) guarded_exp(-mu_n y) over the modes at each
        l, on a stretched DNS grid and on the modes' norm lattice."""
        m = casm.families[family] if family == C.W1_BLEPS3 else w0[0].bundle(family)
        coef = np.stack([m.cu, m.cw, m.cb]) * np.exp(-1j * m.alpha * 0.3)
        dns_y = stretched_grid(300.0, 384, 1e-3, 1.0)
        lattice = C._norm_lattice(m, casm.x_period, C._NORM_NY)
        for y, points in ((dns_y, dns_y), (lattice, lattice.y)):
            l, got = C.mode_profiles(m, 0.3, y)
            cols = boundary.guarded_exp(np.outer(-m.mu, points))
            groups = [np.abs(m.l - lg) <= 1e-12 for lg in l]
            want = np.stack([coef[:, at] @ cols[at] for at in groups], axis=1)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_table_per_pass_on_a_stretched_grid(self, casm, monkeypatch):
        """W1's modal pass on a DNS grid exponentiates once: its lift modes
        take their table rows next to the pair modes, in every l-group."""
        calls = []
        exp = boundary.guarded_exp

        def counted(expo):
            calls.append(expo.shape[1])
            return exp(expo)

        monkeypatch.setattr(boundary, "guarded_exp", counted)
        y = stretched_grid(300.0, 384, 1e-3, 1.0)
        C.mode_profiles(casm.modal(), 0.3, y)
        assert calls == [len(y)]

    def test_table_rows_bounded_by_w0(self, w0, casm, monkeypatch):
        """modes_norms(W1_BLeps2) exponentiates at most two rows per W0 mode."""
        asm, _ = w0
        rows = []
        exp = boundary.guarded_exp

        def counted(expo):
            rows.append(expo.shape[0])
            return exp(expo)

        monkeypatch.setattr(boundary, "guarded_exp", counted)
        C.modes_norms(casm.families[C.W1_BLEPS2], casm.x_period)
        n_w0 = sum(len(m) for m in asm.families.values())
        assert 0 < sum(rows) <= 2 * n_w0

    def test_interior_and_ledger_modes_carry_parents(self, w0, casm):
        """W1_BLeps2 and every pair-born ledger term: 28 a/b terms and the
        8 c-type forcings at the reference case."""
        _, p = w0
        assert not born_of_no_pair(casm.families[C.W1_BLEPS2]).any()
        terms = []
        for itype, _, src, modes in casm.batches:
            booked = ({itype.name: src} if modes is None
                      else C._booked_terms(itype.kind, src, modes, p))
            terms += booked.items()
        assert len(terms) == 36
        for name, m in terms:
            assert len(m) and not born_of_no_pair(m).any(), name


def _ledger_passes(asm, p, casm):
    """(name, first set, further sets, t) of every ledger kernel pass at the
    reference case (each batch's booked terms, the incident diffusion term,
    each modal family with its d/dy), and W1_BLeps3 at t = 0.3."""
    for itype, lobe, src, modes in casm.batches:
        booked = ([src] if modes is None
                  else list(C._booked_terms(itype.kind, src, modes, p).values()))
        yield f"{itype.name}/{lobe.name}", booked[0], booked[1:], 0.0
    inc = asm.families[Family.INCIDENT]
    lap = (inc.mu**2 - inc.l**2) * p.eps**6
    yield "diffusion", inc.scaled(p.nu0 * lap, p.nu0 * lap, p.kappa0 * lap), [], 0.0
    for fam in C.W1_MODAL:
        m = casm.families[fam]
        yield fam, m, [m.d_dy()], 0.0
    m = casm.families[C.W1_BLEPS3]
    yield "W1_BLeps3 at t = 0.3", m, [m.d_dy()], 0.3


class TestNormLattice:
    """modes_norms hands the kernel its y-grid as a boundary.YLattice: the
    profiles on the lattice against the points path on the same y."""

    #: bound on max|dP| / max|P| per pass: >= 2x the largest distance
    #: measured on the 23 passes (2.6e-13, c3's double lobe; the parents
    #: against the direct columns differ by 3.9e-13 there, on the points)
    BAND = 1e-12

    def test_lattice_matches_the_points_path(self, w0, casm):
        """Every batch and family, the non-pair sets (the lift modes of
        W1_BLeps3, W1_II, the incident diffusion term) included."""
        asm, p = w0
        passes = list(_ledger_passes(asm, p, casm))
        assert len(passes) == 23
        assert {n for n, m, _, _ in passes if born_of_no_pair(m).any()} == {
            "diffusion", C.W1_BLEPS3, C.W1_II, "W1_BLeps3 at t = 0.3"}
        for name, m, also, t in passes:
            lattice = C._norm_lattice(m, casm.x_period, C._NORM_NY)
            _, got = C.mode_profiles(m, t, lattice, also)
            _, want = C.mode_profiles(m, t, lattice.y, also)
            assert np.abs(got - want).max() <= self.BAND * np.abs(want).max(), name

    def test_one_table_per_pass(self, w0, casm, monkeypatch):
        """No ledger mode can pass exponent -700 on its lattice, so each
        pass exponentiates once: one table over the lattice offsets."""
        asm, p = w0
        calls = []
        exp = boundary.guarded_exp

        def counted(expo):
            calls.append(expo.shape[1])
            return exp(expo)

        monkeypatch.setattr(boundary, "guarded_exp", counted)
        for name, m, also, t in _ledger_passes(asm, p, casm):
            calls.clear()
            lattice = C._norm_lattice(m, casm.x_period, C._NORM_NY)
            C.mode_profiles(m, t, lattice, also)
            assert calls == [len(lattice.offsets)], name


def _phase_sum(l, alpha, Q, t):
    """(l, P) of node profiles (boundary.node_profiles) at time t: each
    x-group's nodes summed with their phases e^(-i alpha t)."""
    groups = boundary._group_by_l(l)
    P = np.stack([np.einsum("n,cny->cy", np.exp(-1j * alpha[idx] * t), Q[:, idx])
                  for idx in groups], axis=1)
    return l[[idx[0] for idx in groups]], P


class TestStackedTimes:
    """W1's profiles at a march's save times from node tables built once
    (boundary.node_profiles): one phase per node and time gives the
    per-time mode_profiles calls."""

    #: t accumulated by + 0.07, as a march reaches its save times
    TIMES = np.add.accumulate(np.r_[0.0, np.full(6, 0.07)])

    @pytest.mark.parametrize("with_also", [False, True], ids=["alone", "also"])
    @pytest.mark.parametrize("grid", ["points", "lattice", "far-lattice"])
    def test_rows_are_the_per_time_calls(self, casm, grid, with_also):
        """W1_BLeps3 (pair and lift modes) on a stretched DNS grid (YPoints),
        on its norm lattice, and on a lattice reaching y = 50, where its
        fastest modes pass exponent -700 and keep guarded columns; with
        its d/dx and d/dy, each its own node table, as the pass's further
        sets."""
        m = casm.families[C.W1_BLEPS3]
        y = {"points": stretched_grid(300.0, 384, 1e-3, 1.0),
             "lattice": C._norm_lattice(m, casm.x_period, C._NORM_NY),
             "far-lattice": boundary.YLattice((1.0, 50.0), 300)}[grid]
        if grid == "far-lattice":
            assert (m.mu.real * 50.0 > boundary._UNDERFLOW_EXPONENT).any()
        sets = [m, m.d_dx(), m.d_dy()] if with_also else [m]
        tables = [boundary.node_profiles(s, y) for s in sets]
        points = y.y if isinstance(y, boundary.YLattice) else y
        assert tables[0][2].shape == (3, len(tables[0][0]), len(points))
        for t in self.TIMES:
            l_t, P_t = C.mode_profiles(m, t, y, sets[1:])
            parts = [_phase_sum(*table, t) for table in tables]
            assert all(np.allclose(l, l_t, rtol=1e-12, atol=0.0) for l, _ in parts)
            got = np.concatenate([P for _, P in parts])
            assert np.abs(got - P_t).max() <= 1e-13 * np.abs(P_t).max(), t

    def test_empty_sets(self):
        """No modes and no mean flow: profiles of no groups, and no nodes."""
        y = np.linspace(0.0, 1.0, 5)
        mf = C.MeanFlowField(np.zeros(0), np.zeros(0), np.zeros(0, dtype=complex), 0.2)
        for profiles in (lambda t: C.mode_profiles(boundary.ExpModes.empty(), t, y),
                         lambda t: mf.profiles(t, y)):
            assert profiles(0.3)[1].shape == (3, 0, 5)
        l, alpha, Q = boundary.node_profiles(boundary.ExpModes.empty(), y)
        assert l.shape == alpha.shape == (0,) and Q.shape == (3, 0, 5)


class TestNodeProfiles:
    """boundary.node_profiles on the DNS's W_app families: W0 (every
    family, as the DNS places it) and W1's modal set."""

    @staticmethod
    def _sets(w0, casm):
        asm, _ = w0
        return {"W0": asm.bundle(Family.SUM), "W1 modal": casm.modal()}

    @pytest.mark.parametrize("name", ["W0", "W1 modal"])
    def test_phase_sums_are_mode_profiles(self, w0, casm, name):
        """Per x-group, sum_n e^(-i alpha_n t) Q_n is mode_profiles at t, to
        1e-13 of its max-norm, on the stretched DNS grid."""
        m = self._sets(w0, casm)[name]
        y = stretched_grid(300.0, 384, 1e-3, 1.0)
        table = boundary.node_profiles(m, y)
        for t in (0.0, 0.13, 0.4):
            l_want, want = C.mode_profiles(m, t, y)
            l, got = _phase_sum(*table, t)
            assert np.allclose(l, l_want, rtol=1e-12, atol=0.0)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), t

    @pytest.mark.parametrize("name", ["W0", "W1 modal"])
    def test_nodes_are_the_distinct_pairs(self, w0, casm, name):
        """One node per distinct (l, alpha), in increasing (l, alpha); far
        fewer nodes than modes."""
        m = self._sets(w0, casm)[name]
        l, alpha, Q = boundary.node_profiles(m, np.linspace(0.0, 1.0, 3))
        want = np.unique(np.stack([m.l, m.alpha], axis=1), axis=0)
        assert np.array_equal(np.stack([l, alpha], axis=1), want)
        assert Q.shape == (3, len(want), 3) and 2 * len(want) < len(m)


def test_ledger_norms_belong_to_residual_Rapp(w0, casm, monkeypatch):
    """modes_norms calls at the reference case: none per assemble_W1, one
    per exponent set per residual_Rapp (18 batches, the incident diffusion
    term, 3 modal families), only the family norms per rowwise_family_sizes.
    In residual_Rapp each call is exactly one mode_profiles pass."""
    asm, _ = w0
    calls, passes = [], []
    norms, profiles = C.modes_norms, C.mode_profiles

    def counted(*args, **kwargs):
        before = len(passes)
        out = norms(*args, **kwargs)
        calls.append(len(passes) - before)  # kernel passes in this call
        return out

    def counted_pass(*args, **kwargs):
        passes.append(1)
        return profiles(*args, **kwargs)

    monkeypatch.setattr(C, "modes_norms", counted)
    monkeypatch.setattr(C, "mode_profiles", counted_pass)
    counts = []
    for run in (lambda: C.assemble_W1(asm), lambda: C.residual_Rapp(casm),
                lambda: C.rowwise_family_sizes(asm)):
        calls.clear()
        run()
        counts.append(len(calls))
        if len(counts) == 2:
            assert calls == [1] * 22
    assert counts == [0, 22, 15]


class TestLedgerNorms:
    """residual_Rapp reads L2 alone where it books L2, the booked terms of
    one batch from one kernel pass, and each modal W1 family's Linf, d/dx
    L2 (from its own profiles) and d/dy L2 from one kernel pass over its
    own modes and their d/dy."""

    def test_l2_only_form_is_the_full_form_l2(self, w0, casm):
        """Bit-identical L2 for every booked term, the incident packet (the
        finite y-range), every W1 family and every family's d/dy."""
        asm, p = w0
        P = casm.x_period
        sets = [asm.families[Family.INCIDENT]]
        for itype, _, src, modes in casm.batches:
            sets += ([src] if modes is None
                     else C._booked_terms(itype.kind, src, modes, p).values())
        for fam in C.W1_MODAL:
            sets += [casm.families[fam], casm.families[fam].d_dy()]
        assert len(sets) == 43
        for m in sets:
            l2, linf, _ = C.modes_norms(m, P, None)
            assert linf is None and l2 == C.modes_norms(m, P)[0]
        mf = casm.families[C.W1_MF]
        l2, linf, _ = mf.norms(P, nx=None)
        assert linf is None and l2 == mf.norms(P)[0]

    def test_shared_pass_is_each_sets_own_pass(self, w0, casm):
        """Every booked term's L2 from its batch's shared pass, and every
        modal family's d/dx and d/dy L2 from the family's pass, equals the
        set's own modes_norms(m, P, None)[0], bit for bit."""
        _, p = w0
        P = casm.x_period
        shared = []
        for itype, _, src, modes in casm.batches:
            if modes is not None:
                shared.append(list(C._booked_terms(itype.kind, src, modes, p).values()))
        shared += [[m, m.d_dx(), m.d_dy()] for m in map(casm.families.get, C.W1_MODAL)]
        assert len(shared) == 10 + 3
        for first, *rest in shared:
            l2, _, _, *more = C.modes_norms(first, P, None, also=rest)
            assert [l2, *more] == [C.modes_norms(m, P, None)[0] for m in (first, *rest)]

    @pytest.mark.parametrize("field", ["l", "alpha", "mu", "parents"])
    def test_shared_pass_refuses_other_exponents(self, casm, field):
        """A set whose exponents differ from the first set's by one ulp in one
        entry is refused with a ValueError naming the field; the (mu, 0)
        parents of W1_BLeps3's lift modes are equal in its d/dy."""
        m = casm.families[C.W1_BLEPS3]
        assert born_of_no_pair(m).any()
        C.modes_norms(m, casm.x_period, None, also=[m.d_dy()])
        pair = int(np.flatnonzero(~born_of_no_pair(m))[0])
        values = getattr(m, field).copy()
        real = values.real  # a view, also of a complex field
        at = (pair, 0) if field == "parents" else pair
        real[at] = np.nextafter(real[at], np.inf)
        other = dataclasses.replace(m.d_dy(), **{field: values})
        with pytest.raises(ValueError, match=rf"differ in {field}$"):
            C.modes_norms(m, casm.x_period, None, also=[other])

    def test_empty_pass_refuses_other_exponents(self, casm):
        """An empty first set has no profile pass, but its further sets are
        still compared: one mode against none is refused naming l, while
        empty further sets give zeros."""
        m = casm.families[C.W1_BLEPS3][:1]
        empty = boundary.ExpModes.empty()
        with pytest.raises(ValueError, match=r"differ in l$"):
            C.modes_norms(empty, casm.x_period, None, also=[m])
        assert C.modes_norms(empty, casm.x_period, None, also=[empty]) == (0.0, None, 0.0, 0.0)

    #: bound on |dx / modes_norms(m.d_dx())[0] - 1|: 2x the largest distance
    #: measured (5.6e-16, W1_BLeps3 at gamma 0.7, eps 0.118, 6 nodes per lobe;
    #: 0 for all three families here, at 5 and 9 nodes per lobe at eps 0.2)
    DX_BAND = 1.2e-15

    @pytest.mark.parametrize("family", C.W1_MODAL)
    def test_dx_l2_from_the_family_profiles(self, casm, family, monkeypatch):
        """The ledger's pass for a family holds its profiles and its d/dy's,
        6 rows, and reads the d/dx L2 from the family's own profiles, each
        group's times l_g: within DX_BAND of m.d_dx()'s own L2, which scales
        each mode by its own l.  The two differ only through the l of one
        group, which lie within the group tolerance.  W1_BLeps3 has an l = 0
        group, whose d/dx is zero."""
        P = casm.x_period
        m = casm.families[family]
        if family == C.W1_BLEPS3:
            assert (m.l == 0.0).any()
        rows, outs = [], []
        profiles, norms = C.mode_profiles, C.modes_norms

        def spy_profiles(modes, *args, **kwargs):
            out = profiles(modes, *args, **kwargs)
            if modes is m:
                rows.append(out[1].shape[0])
            return out

        def spy_norms(modes, *args, **kwargs):
            out = norms(modes, *args, **kwargs)
            if modes is m:
                outs.append(out)
            return out

        monkeypatch.setattr(C, "mode_profiles", spy_profiles)
        monkeypatch.setattr(C, "modes_norms", spy_norms)
        C.residual_Rapp(casm)
        assert rows == [6] and len(outs) == 1
        _, linf, dx, dy = outs[0]
        assert (linf, dy) == (norms(m, P)[1], norms(m.d_dy(), P)[0])
        assert abs(dx / norms(m.d_dx(), P)[0] - 1.0) <= self.DX_BAND
        for idx in C._group_by_l(m.l):
            assert np.ptp(m.l[idx]) <= C._l_tolerance(m.l)

    def test_one_synthesis_per_modal_family(self, casm, monkeypatch):
        """The ledger builds an x-basis 3 times, once per modal family (one
        row pair per distinct l), and synthesizes its max-norm from it in
        blocks of rows."""
        calls = []
        basis = C._x_basis

        def counted(l, x):
            calls.append(len(l))
            return basis(l, x)

        monkeypatch.setattr(C, "_x_basis", counted)
        C.residual_Rapp(casm)
        assert calls == [len(C._group_by_l(casm.families[f].l)) for f in C.W1_MODAL]

    @pytest.mark.parametrize("family", C.W1_MODAL)
    def test_blocked_max_is_the_full_grid_max(self, casm, family):
        """_profile_norms' Linf, taken in blocks of _LINF_ROWS y-rows with a
        short last block, equals the max over synthesize's full grids bit for
        bit."""
        P = casm.x_period
        m = casm.families[family]
        lattice = C._norm_lattice(m, P, C._NORM_NY)
        assert len(lattice.y) > C._LINF_ROWS and len(lattice.y) % C._LINF_ROWS
        l, prof = C.mode_profiles(m, 0.0, lattice)
        x = np.linspace(0.0, P, C._NORM_NX, endpoint=False)
        want = max(float(max(f.max(), -f.min())) for f in boundary.synthesize(l, prof, x))
        assert C._profile_norms(l, prof, lattice.y, P, C._NORM_NX)[1] == want


class TestDeadRows:
    """mode_profiles leaves a coefficient row that is all zero out of its
    contraction and returns it as exact zeros."""

    @staticmethod
    def _spy_rows(monkeypatch):
        rows = []
        sum_columns = boundary.YLattice.sum_columns

        def counted(self, coef, cols):
            rows.append(len(coef))
            return sum_columns(self, coef, cols)

        monkeypatch.setattr(boundary.YLattice, "sum_columns", counted)
        return rows

    def test_booked_batches_contract_their_live_rows(self, w0, casm, monkeypatch):
        """An a batch's 12 rows reach sum_columns as 8 (r1_aL_wrow's u and w
        and r1_aL_wforce's u and b are zero), a b batch's 6 as 4.  The dead
        rows are exactly 0, and every set's rows are its own pass's, bit for
        bit."""
        _, p = w0
        rows = self._spy_rows(monkeypatch)
        kinds = set()
        for itype, _, src, modes in casm.batches:
            if modes is None:
                continue
            sets = list(C._booked_terms(itype.kind, src, modes, p).values())
            lattice = C._norm_lattice(sets[0], casm.x_period, C._NORM_NY)
            rows.clear()
            _, prof = C.mode_profiles(sets[0], 0.0, lattice, sets[1:])
            live = {"a": 8, "b": 4}[itype.kind]
            assert rows == [live] * prof.shape[1], itype.name
            dead = ~np.concatenate([np.stack([m.cu, m.cw, m.cb]) for m in sets]).any(axis=1)
            assert dead.sum() == 3 * len(sets) - live and not prof[dead].any()
            for i, m in enumerate(sets):
                assert np.array_equal(prof[3 * i:3 * i + 3],
                                      C.mode_profiles(m, 0.0, lattice)[1]), itype.name
            kinds.add(itype.kind)
        assert kinds == {"a", "b"}

    def test_all_zero_pass(self, monkeypatch):
        """At delta = 0 every booked term vanishes: the pass contracts
        nothing and returns zero profiles, and the norms are 0."""
        asm, p = make_w0(0.2, delta=0.0)
        rows = self._spy_rows(monkeypatch)
        for itype, _, src, modes in C._solved_batches(asm):
            first, *rest = ([src] if modes is None
                            else C._booked_terms(itype.kind, src, modes, p).values())
            lattice = C._norm_lattice(first, asm.x_period, C._NORM_NY)
            l, prof = C.mode_profiles(first, 0.0, lattice, rest)
            assert prof.shape == (3 * (1 + len(rest)), len(l), len(lattice.y))
            assert not prof.any(), itype.name
            l2, _, dx, *more = C.modes_norms(first, asm.x_period, None, also=rest)
            assert l2 == dx == 0.0 and more == [0.0] * len(rest)
        assert rows == []


class TestLiftSecondHarmonic:
    def test_propagating_branch(self):
        """4 sin^2(g) < 1: the reflected rate at (2w0, 2k0) is imaginary."""
        gamma, eps = 0.45, 0.1
        car = critical_carrier(gamma, 1.0)
        p = PhysParams(gamma=gamma, eps=eps)
        spec = ModalMatrixSpec(p.nu, p.kappa, 2 * car.omega0, 2 * car.k0, gamma)
        lam2 = roots_for(spec).by_label(2)[0]
        assert abs(lam2.real) <= 1e-3
        assert abs(C.second_harmonic_rate(gamma, car.k0).real) == 0.0

    def test_evanescent_branch(self):
        gamma = 0.65
        car = critical_carrier(gamma, 1.0)
        for eps in (0.2, 0.1):
            p = PhysParams(gamma=gamma, eps=eps)
            spec = ModalMatrixSpec(p.nu, p.kappa, 2 * car.omega0, 2 * car.k0, gamma)
            lam2 = roots_for(spec).by_label(2)[0]
            assert lam2.real >= 0.5
        assert C.second_harmonic_rate(gamma, car.k0).real >= 0.5

    def test_rate_matches_closed_form(self):
        """|Lambda_2 - Lambda_0| = O(eps^2) at an off-center double-lobe node."""
        gamma = GAMMA
        car = critical_carrier(gamma, 1.0)
        diffs, eps_list = [], (0.3, 0.2, 0.15, 0.1)
        L0 = C.second_harmonic_rate(gamma, car.k0)
        for eps in eps_list:
            k = car.k0 + 0.5 * eps**2
            w = dispersion_omega(k, car.m0, gamma)
            p = PhysParams(gamma=gamma, eps=eps)
            spec = ModalMatrixSpec(p.nu, p.kappa, w + car.omega0, k + car.k0, gamma)
            diffs.append(abs(roots_for(spec).by_label(2)[0] - L0))
        slope = np.polyfit(np.log(eps_list), np.log(diffs), 1)[0]
        assert abs(slope - 2.0) <= 0.4, slope

    def test_second_harmonic_size_evanescent(self):
        """sin(g) > 1/2: peak second harmonic ~ delta eps^2."""
        norms, eps_list = [], (0.3, 0.15)
        for eps in eps_list:
            asm, _ = make_w0(eps, gamma=0.65, delta=1e-3)
            cas = C.assemble_W1(asm)
            norms.append(cas.norms(C.W1_II)[1])
        slope = (math.log(norms[0]) - math.log(norms[1])) / math.log(2.0)
        assert abs(slope - 2.0) <= 0.3, slope

    @pytest.mark.parametrize("gamma", [0.45, 0.4])
    def test_propagating_branch_assembles(self, gamma):
        """4 sin^2(gamma) < 1: double-lobe nodes classify near-critical too,
        and the second-harmonic lift takes them with the non-critical ones.
        The reflected wave W1_II decays slowly (Re mu 0.008 to 0.023 at
        eps = 0.2), the layers split off by label at the eps^-3 rate, and
        the ledger runs."""
        asm, p = make_w0(0.2, gamma=gamma, delta=0.008)
        cas = C.assemble_W1(asm)
        ii = cas.families[C.W1_II]
        regimes = roots_for(ModalMatrixSpec(p.nu, p.kappa, ii.alpha, ii.l, gamma)).regimes
        assert {r.name for r in regimes} >= {"NON_CRITICAL", "CRITICAL_SMALL_DIFF"}
        assert 0.0 < ii.mu.real.min() and ii.mu.real.max() < 0.03
        assert cas.families[C.W1_BLEPS3].mu.real.min() > 0.4 * p.eps**-3
        assert C.wall_trace_check(cas) <= 1e-9
        assert 0.0 < C.residual_Rapp(cas)["total"] < math.inf

    def test_classification_mismatch_error(self, w0, casm):
        _, p = w0
        # zero-lobe (l, alpha) fed to the non-critical lift must be refused
        bad = (np.array([0.01]), np.array([0.01]),
               np.array([1.0 + 0j]), np.array([0j]), np.array([0j]))
        with pytest.raises(RegimeError):
            C.lift_second_harmonic(bad, p)

    def test_stray_node_in_the_batch_is_named(self, w0):
        """One zero-lobe node in the middle of a double-lobe batch: the error
        counts it and names it by (l, alpha)."""
        _, p = w0
        l = np.array([2 * CARRIER.k0, 0.01, 2 * CARRIER.k0 + 0.01])
        alpha = np.array([2 * CARRIER.omega0, 0.01, 2 * CARRIER.omega0])
        tr = (l, alpha, np.ones(3, dtype=complex), np.zeros(3, dtype=complex),
              np.zeros(3, dtype=complex))
        with pytest.raises(RegimeError,
                           match=r"^lift_noncritical .*: 1 node\(s\) .* \(l=0\.01, alpha=0\.01\)"):
            C.lift_second_harmonic(tr, p)


class TestLiftMeanFlow:
    def synthetic_traces(self, eps, delta, rng):
        """Zero-lobe traces with the documented densities and generic phases."""
        ls, als = np.meshgrid(eps**2 * np.array([-1.0, -0.5, 0.5, 1.0]),
                              eps**2 * np.array([0.3, 0.9, 1.5]))
        n = ls.size
        ph = np.exp(2j * math.pi * rng.random((3, n)))
        return (ls.ravel(), als.ravel(),
                delta / n * ph[0],
                delta * eps**4 / n * ph[1],
                delta * eps**-2 / n * ph[2])

    def test_zero_traces_zero_mean_flow(self, w0):
        _, p = w0
        z = np.zeros(0)
        bl, mf = C.lift_mean_flow((z, z, z.astype(complex),
                                   z.astype(complex), z.astype(complex)), p)
        assert len(mf) == 0 and len(bl) == 0

    def test_double_lobe_node_refused(self, w0):
        """A double-lobe node is not non-oscillating; the error names it."""
        _, p = w0
        l, alpha = 2 * CARRIER.k0, 2 * CARRIER.omega0
        tr = (np.array([l]), np.array([alpha]), np.array([1.0 + 0j]),
              np.array([0j]), np.array([0j]))
        with pytest.raises(RegimeError,
                           match=re.escape(f"1 node(s) are not; the first, (l={l:.4g}, "
                                           f"alpha={alpha:.4g})")):
            C.lift_mean_flow(tr, p)

    def test_mean_flow_is_divergence_free(self, casm):
        """d_x u + d_y w = 0: u = -eps^2 theta' g and w = theta gx, where gx
        (the wall row of w, theta(0) = 1) is the exact x-derivative of g and
        the same theta' multiplies both components."""
        mf = casm.families[C.W1_MF]
        nx = 128
        x = np.linspace(0.0, casm.x_period, nx, endpoint=False)
        kx = 2 * math.pi * np.fft.fftfreq(nx, d=casm.x_period / nx)
        y = np.linspace(0.0, 2.0 / casm.params.eps**2, 40)
        u, w, _ = C.synthesize(*mf.profiles(0.3, y), x)
        e2 = casm.params.eps**2
        gx = w[0]
        dyw = e2 * np.outer(C._theta_prime(e2 * y), gx)
        dxu = np.fft.ifft(1j * kx * np.fft.fft(u, axis=1), axis=1).real
        assert np.abs(dxu + dyw).max() <= 1e-10 * max(np.abs(dyw).max(), 1e-300)

    def test_wall_w_equals_minus_leftover(self, w0):
        """Total w at y=0 of interior + layer lift + mean flow vanishes."""
        asm, _ = w0
        cas = lift_rows(asm, C._solved_batches(asm), ("a1",))
        assert C.wall_trace_check(cas) <= 1e-9

    def test_operator_size_scalings(self):
        """L2 ~ delta eps^2 attained; Linf stays below the delta eps^3 bound."""
        delta = 1e-3
        eps_list = (0.3, 0.2, 0.1)
        l2s, linfs = [], []
        for eps in eps_list:
            p = PhysParams(gamma=GAMMA, eps=eps, delta=delta)
            tr = self.synthetic_traces(eps, delta, np.random.default_rng(11))
            _, mf = C.lift_mean_flow(tr, p)
            P = 2 * math.pi / (eps**2 * 0.5)
            l2, linf, _ = mf.norms(P)
            l2s.append(l2)
            linfs.append(linf)
        loge = np.log(eps_list)
        slope_l2 = np.polyfit(loge, np.log(l2s), 1)[0]
        assert abs(slope_l2 - 2.0) <= 0.4, slope_l2
        # Linf bound delta eps^3: calibrate the constant at the coarsest eps
        Cbound = linfs[0] / (delta * eps_list[0] ** 3)
        for eps, v in zip(eps_list, linfs):
            assert v <= Cbound * delta * eps**3 * 1.001

    def test_shear_nodes_are_lifted(self, casm):
        """Exactly-zero-l pairs get the two-mode shear lift, not a drop: their
        summed interior w-trace is exactly zero (w = il/mu u), so the shear
        lift, which matches u and d_y b only, leaves nothing over."""
        bl3 = casm.families[C.W1_BLEPS3]
        shear = np.abs(bl3.l) < 1e-14
        assert shear.any()
        assert np.abs(bl3.cw[shear]).max() == 0.0
        lobes = {lobe: [] for lobe in C.Lobe}
        for _, lobe, _, modes in casm.batches:
            if modes is not None:
                lobes[lobe].append(modes)
        for lobe, parts in lobes.items():
            l, _, _, tw, _ = C.collect_traces(C.ExpModes.concat(parts))
            assert (lobe is C.Lobe.ZERO) == (l == 0.0).any()
            assert (tw[l == 0.0] == 0.0).all()


    def test_shear_lift_matches_the_quartic(self, w0, casm):
        """The batched shear lift at the reference case's l = 0 nodes: per
        node, its rates are the two decaying roots of the quartic
        -nu kappa L^4 - i alpha (nu+kappa) L^2 + alpha^2 - sin^2 g (np.roots,
        rtol 1e-13), and its modes cancel the u- and d_y b-traces."""
        _, p = w0
        zero = [m for _, lobe, _, m in casm.batches
                if m is not None and lobe is C.Lobe.ZERO]
        l, alpha, tu, _, tb = C.collect_traces(C.ExpModes.concat(zero))
        shear = np.abs(l) < 1e-14
        assert shear.sum() > 1
        modes = C._shear_lift(alpha[shear], tu[shear], tb[shear], p)
        assert (modes.l == 0.0).all() and (modes.cw == 0.0).all()
        mu = modes.mu.reshape(-1, 2)
        sg2 = math.sin(p.gamma) ** 2
        for a, got in zip(alpha[shear], mu):
            roots = np.roots([-p.nu * p.kappa, 0.0, -1j * a * (p.nu + p.kappa), 0.0,
                              a * a - sg2])
            want = np.sort_complex(1j * roots[roots.real > 0]) / 1j
            got = np.sort_complex(1j * got) / 1j
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        u = modes.cu.reshape(-1, 2).sum(axis=1)
        dyb = (-modes.mu * modes.cb).reshape(-1, 2).sum(axis=1)
        assert np.abs(u + tu[shear]).max() <= 1e-12 * np.abs(tu[shear]).max()
        assert np.abs(dyb + tb[shear]).max() <= 1e-12 * np.abs(tb[shear]).max()
        # the shear modes sit among the zero-lobe lift modes in node order
        bl, _ = C.lift_mean_flow((l, alpha, tu, np.zeros_like(tu), tb), p)
        at = np.flatnonzero(np.repeat(shear, 2))
        assert (bl.mu[at] == modes.mu).all() and (bl.cu[at] == modes.cu).all()

    def test_shear_node_without_two_decaying_roots_is_named(self, w0):
        """At alpha = sin(g) one L^2 root is zero: a CorrectorError names
        the node."""
        _, p = w0
        sg = math.sin(p.gamma)
        one = np.ones(2, dtype=complex)
        with pytest.raises(C.CorrectorError,
                           match=re.escape(f"alpha={sg:.4g}: 1 decaying roots")):
            C._shear_lift(np.array([0.01, sg]), one, one, p)


    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_shear_lift_checks_non_finite_traces(self, w0, bad):
        """A NaN or inf u-trace fails the lifts' residual check, which names
        the node as (l, alpha) = (0, alpha)."""
        _, p = w0
        alpha = np.array([0.01, 0.03])
        C._shear_lift(alpha, np.ones(2, dtype=complex), np.ones(2, dtype=complex), p)
        with pytest.raises(IllConditionedLiftError,
                           match=r"lift residual nan at \(l=0, alpha=0\.03\)"):
            C._shear_lift(alpha, np.array([1.0, bad], dtype=complex),
                          np.ones(2, dtype=complex), p)


class TestAssembly:
    def test_wall_traces_cancel(self, casm):
        assert C.wall_trace_check(casm) <= 1e-9

    def test_families_present(self, casm):
        for fam in C.W1_FAMILIES:
            assert len(casm.families[fam]) > 0

    def test_residual_ledger_populated(self, casm):
        rep = C.residual_Rapp(casm)
        assert {"r1_aL_viscous", "r1_aL_wrow", "r1_aL_leray", "r1_bL_wforce",
                "r1_aMF"} <= set(rep)
        assert all(v >= 0.0 for v in rep.values())

    def test_r1_slope_at_fixed_delta(self):
        """Neglected-term ledger shrinks at least like eps^2 at fixed delta."""
        totals, eps_list = [], (0.3, 0.15)
        for eps in eps_list:
            asm, _ = make_w0(eps, delta=1e-3)
            cas = C.assemble_W1(asm)
            totals.append(sum(v for k, v in C.residual_Rapp(cas).items()
                              if k.startswith("r1_")))
        slope = (math.log(totals[0]) - math.log(totals[1])) / math.log(2.0)
        assert slope >= 1.7, slope

    def test_second_harmonic_dft_peak(self, casm):
        """A probe of W1_II oscillates at 2 omega_0 within eps^2."""
        m = casm.families[C.W1_II]
        w0_freq = 2 * CARRIER.omega0
        nt, T = 512, 160.0
        t = np.linspace(0.0, T, nt, endpoint=False)
        probe = np.zeros(nt, dtype=complex)
        x0, y0 = 1.0, 0.1
        for n in range(len(m)):
            probe += (m.cu[n] * np.exp(1j * (m.l[n] * x0 - m.alpha[n] * t))
                      * cmath.exp(-m.mu[n] * y0))
        sig = (probe + probe.conj()).real
        freqs = 2 * math.pi * np.fft.rfftfreq(nt, d=T / nt)
        spec = np.abs(np.fft.rfft(sig))
        peak = freqs[np.argmax(spec)]
        assert abs(peak - w0_freq) <= casm.params.eps**2 + freqs[1]

    def test_skew_part_is_energy_neutral(self, casm):
        x = np.linspace(0.0, casm.x_period, 64, endpoint=False)
        y = np.linspace(0.0, 5.0, 200)
        fld = C.evaluate_W1(casm, 0.0, x, y)
        fld = tuple(c.real for c in fld)
        total = C.skew_energy(fld, casm.params.gamma, x, y)
        scale = sum(float(np.abs(c).max()) for c in fld) ** 2 * casm.x_period * 5.0
        assert abs(total) <= 1e-10 * scale

    def test_rowwise_sizes_exceed_assembled(self, w0, casm):
        """Row-by-row bookkeeping bounds the assembled corrector from above.

        Q(W0, W0) vanishes at the wall, so per-row wall traces cancel when
        combined and the assembled families are smaller than the row-wise
        sums the size estimates control.
        """
        asm, _ = w0
        sizes = C.rowwise_family_sizes(asm)
        for fam in (C.W1_BLEPS3, C.W1_MF):
            assert sizes[fam][0] >= casm.norms(fam)[0]


class TestOneStore:
    """modal() is the one store: the modal families and every solved batch's
    interior modes are its row ranges, and no array of it can be written."""

    def test_batches_are_rows_of_their_family(self, casm):
        family = {"a": casm.families[C.W1_BLEPS2], "b": casm.families[C.W1_BLEPS3]}
        solved = [b for b in casm.batches if b[3] is not None]
        assert {b[0].kind for b in solved} == {"a", "b"}
        for itype, lobe, src, modes in solved:
            fam = family[itype.kind]
            assert np.shares_memory(modes.cu, fam.cu), (itype.name, lobe)
            assert np.shares_memory(modes.l, fam.l), (itype.name, lobe)
            # the forcing keeps its own coefficients on its modes' exponents
            for f in ("l", "alpha", "mu", "parents"):
                assert getattr(src, f) is getattr(modes, f), (itype.name, lobe, f)
            assert not np.shares_memory(src.cu, modes.cu)

    def test_modal_is_the_store(self, casm, monkeypatch):
        def no_concat(parts):
            raise AssertionError("modal() concatenated")
        monkeypatch.setattr(C.ExpModes, "concat", no_concat)
        store = casm.modal()
        assert casm.modal() is store
        assert len(store) == sum(len(casm.families[f]) for f in C.W1_MODAL)
        for fam in C.W1_MODAL:
            assert np.shares_memory(casm.families[fam].cu, store.cu), fam
            assert np.shares_memory(casm.families[fam].l, store.l), fam

    def test_store_is_read_only(self, casm):
        modes = next(b[3] for b in casm.batches if b[3] is not None)
        for arr in (casm.families[C.W1_BLEPS2].cu, modes.cu, modes.mu, casm.modal().l):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestResidualReport:
    def test_delta_zero_reduces_to_diffusion(self):
        asm, _ = make_w0(0.2, delta=0.0)
        cas = C.assemble_W1(asm)
        rep = C.residual_Rapp(cas)
        assert rep["eps6_diffusion_inc"] > 0.0
        for k, v in rep.items():
            if k not in ("eps6_diffusion_inc", "total"):
                assert v <= 1e-14, (k, v)
        assert rep["total"] == pytest.approx(rep["eps6_diffusion_inc"])

    def test_report_terms(self, casm):
        rep = C.residual_Rapp(casm)
        for key in ("eps6_diffusion_inc", "cross_Q_W0_W1", "cross_Q_W1_W0",
                    "cross_Q_W1_W1", "c_terms_c1", "total"):
            assert key in rep and rep[key] >= 0.0
        assert rep["total"] >= rep["eps6_diffusion_inc"]

    def test_ledger_solves_nothing(self, w0, casm, monkeypatch):
        """residual_Rapp books the assembly's batches: it enumerates no pair
        and solves no interior, on the full assembly and on one lifted from
        rows a1 and c2 alone, whose report holds exactly those rows' booked
        terms, the incident diffusion, mean-flow and cross terms."""
        asm, _ = w0
        sub = lift_rows(asm, casm.batches, ("a1", "c2"))
        calls = {}
        for name in ("enumerate_pairs", "solve_interior_a", "solve_interior_b"):
            def counted(*args, _f=getattr(C, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args)
            monkeypatch.setattr(C, name, counted)
        full = C.residual_Rapp(casm)
        rep = C.residual_Rapp(sub)
        assert calls == {}
        assert set(rep) == {"r1_aL_viscous", "r1_aL_wrow", "r1_aL_leray", "r1_aL_wforce",
                            "c_terms_c2", "eps6_diffusion_inc", "r1_aMF", "cross_Q_W0_W1",
                            "cross_Q_W1_W0", "cross_Q_W1_W1", "total"}
        assert rep["c_terms_c2"] == full["c_terms_c2"]

    def test_gradient_cost_two_layers(self):
        """max |grad W_app| grows like eps^-2 (the eps^2 layer dominates)."""
        worsts, eps_list = [], (0.3, 0.15)
        for eps in eps_list:
            asm, _ = make_w0(eps)
            cas = C.assemble_W1(asm)
            worsts.append(C.grad_Wapp_Linf(cas))
        slope = (math.log(worsts[0]) - math.log(worsts[1])) / math.log(2.0)
        assert abs(slope + 2.0) <= 0.3, slope
