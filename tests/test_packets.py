"""Wave-packet assembly: envelope, quadrature, families, size table."""

import math
import tracemalloc

import numpy as np
import pytest

from wavecrit import boundary
from wavecrit.boundary import evaluate_modes
from wavecrit.packets import (
    Envelope,
    Family,
    QuadratureSpec,
    RegimeError,
    assemble_W0,
    chi_bump,
    default_grid,
    evaluate_packet,
    incident_polarization,
    packet_norms,
)
from wavecrit.params import PhysParams, critical_carrier, dispersion_omega

GAMMA = 0.7
CARRIER = critical_carrier(GAMMA, 1.0)


def make_assembly(eps, nodes=5):
    p = PhysParams(gamma=GAMMA, eps=eps)
    env = Envelope(carrier=CARRIER, eps=eps)
    return assemble_W0(p, env, QuadratureSpec(nodes))


@pytest.fixture(scope="module")
def assembly():
    return make_assembly(0.2)


def sizes(modes, grid):
    """(L2, Linf) of the whole field from packet_norms' per-component norms."""
    l2, linf = packet_norms(modes, grid)
    return math.hypot(*l2), max(linf)


class TestEnvelope:
    def test_bump_support_and_peak(self):
        assert chi_bump(0.0) == pytest.approx(1.0)
        assert chi_bump(1.0) == 0.0
        assert chi_bump(-1.0) == 0.0
        assert chi_bump(2.5) == 0.0
        assert 0.0 < chi_bump(0.9) < chi_bump(0.5) < 1.0

    def test_bump_vanishes_fast_at_the_edge(self):
        # all derivatives vanish at |s| = 1; the value at 0.999 is already
        # far below any polynomial in the distance to the edge
        assert chi_bump(0.999) < 1e-200

    def test_amplitude_has_conjugate_lobe_symmetry(self):
        env = Envelope(carrier=CARRIER, eps=0.2)
        for k, m in [(1.01, 0.17), (0.98, 0.2), (1.0, 0.19)]:
            assert env.amplitude(k, m) == pytest.approx(env.amplitude(-k, -m))

    def test_amplitude_scale(self):
        env = Envelope(carrier=CARRIER, eps=0.2)
        assert env.amplitude(CARRIER.k0, CARRIER.m0) == pytest.approx(1.0 / 0.04)

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(3)


def test_incident_polarization_solves_inviscid_rows():
    """Divergence and buoyancy rows hold exactly for X_{k,m}."""
    sg, cg = math.sin(GAMMA), math.cos(GAMMA)
    for k, m in [(1.0, 0.2), (0.9, 0.15), (1.1, 0.25)]:
        w = dispersion_omega(k, m, GAMMA)
        U, W, B = incident_polarization(k, m, GAMMA, w)
        assert abs(1j * k * U + 1j * m * W) <= 1e-14
        assert abs(-1j * w * B + U * sg + W * cg) <= 1e-14


@pytest.mark.parametrize("gamma, eps, nodes",
                         [(0.7, 0.2, 5), (0.734, 0.179, 6), (0.66, 0.12, 9)])
def test_incident_family_matches_per_node_oracle(gamma, eps, nodes):
    """The incident family is, bit for bit, one plane wave per node where the
    bump is nonzero, xi-major, from the scalar dispersion_omega and
    incident_polarization."""
    car = critical_carrier(gamma, 1.0)
    quad = QuadratureSpec(nodes)
    inc = assemble_W0(PhysParams(gamma=gamma, eps=eps), Envelope(carrier=car, eps=eps),
                      quad).families[Family.INCIDENT]
    s, wts = quad.nodes_weights()
    e2 = eps**2
    rows = []
    for i, xi in enumerate(s):
        for j, eta in enumerate(s):
            chi2 = chi_bump(xi) * chi_bump(eta)
            if chi2 == 0.0:
                continue
            k, m = float(car.k0 + e2 * xi), float(car.m0 + e2 * eta)
            omega = dispersion_omega(k, m, gamma)
            amp = e2 * chi2 * wts[i] * wts[j]
            U, W, B = incident_polarization(k, m, gamma, omega)
            rows.append((k, omega, -1j * m, amp * U, amp * W, amp * B))
    assert len(rows) == (nodes - 2) ** 2
    for f, want in zip(("l", "alpha", "mu", "cu", "cw", "cb"), zip(*rows)):
        got = getattr(inc, f)
        assert got.dtype == (float if f in ("l", "alpha") else complex)
        assert np.array_equal(got, np.array(want)), f
    assert np.array_equal(inc.parents, np.stack([inc.mu, np.zeros_like(inc.mu)], axis=1))


class TestAssembly:
    def test_families_present(self, assembly):
        for fam in (Family.INCIDENT, Family.BLEPS2, Family.BLEPS3):
            assert len(assembly.families[fam]) > 0
        # one lambda_5 mode per node, two eps^2 modes per node
        n_inc = len(assembly.families[Family.INCIDENT])
        assert len(assembly.families[Family.BLEPS3]) == n_inc
        assert len(assembly.families[Family.BLEPS2]) == 2 * n_inc

    def test_decay_rate_split(self, assembly):
        eps = assembly.params.eps
        r2 = assembly.families[Family.BLEPS2].mu.real
        r3 = assembly.families[Family.BLEPS3].mu.real
        assert r2.min() > 0 and r3.min() > 0
        # the eps^3 layer is an order of magnitude thinner at eps = 0.2
        assert r3.min() > 3.0 * r2.max()

    def test_wall_traces_cancel(self, assembly):
        """u, w and d_y b of incident + lifts vanish at y = 0."""
        x = np.linspace(0.0, assembly.x_period, 200, endpoint=False)
        y = np.array([0.0])
        u, w, _ = evaluate_packet(assembly, Family.SUM, 0.4, (x, y))
        _, _, dyb = evaluate_modes(assembly.bundle(Family.SUM).d_dy(), 0.4, x, y)
        inc_u, inc_w, _ = evaluate_packet(assembly, Family.INCIDENT, 0.4, (x, y))
        scale = max(abs(inc_u).max(), abs(inc_w).max())
        assert abs(u).max() <= 1e-10 * scale
        assert abs(w).max() <= 1e-10 * scale
        assert abs(dyb).max() <= 1e-9 * scale / assembly.params.eps ** 3

    def test_wide_lobe_rejected(self):
        # at eps = 0.4 a lobe around a small carrier (k0 = 0.25) reaches
        # wavevectors whose frequency is far from critical; the lift's one
        # regime check refuses them, with the class the benchmark reads
        # as packets.RegimeError
        car = critical_carrier(GAMMA, 0.25)
        p = PhysParams(gamma=GAMMA, eps=0.4)
        env = Envelope(carrier=car, eps=0.4)
        assert RegimeError is boundary.RegimeError
        with pytest.raises(RegimeError, match=r"^lift_critical needs regime .*: 2 node\(s\)"):
            assemble_W0(p, env, QuadratureSpec(5))

    def test_envelope_eps_must_match_params(self):
        p = PhysParams(gamma=GAMMA, eps=0.2)
        env = Envelope(carrier=CARRIER, eps=0.3)
        with pytest.raises(ValueError, match="eps"):
            assemble_W0(p, env, QuadratureSpec(5))

    def test_quadrature_refinement(self):
        """Doubling nodes_per_lobe moves the L2 norm by < 1e-3 relative."""
        l2 = {}
        for n in (9, 17):
            asm = make_assembly(0.2, nodes=n)
            grid = default_grid(asm, Family.INCIDENT)
            l2[n], _ = sizes(asm.bundle(Family.INCIDENT), grid)
        assert abs(l2[17] - l2[9]) <= 1e-3 * l2[9]


class TestOneStore:
    """The three families are row ranges of one read-only store, which is
    the SUM bundle itself."""

    def test_sum_bundle_is_the_store(self, assembly, monkeypatch):
        def no_concat(parts):
            raise AssertionError("bundle(Family.SUM) concatenated")
        monkeypatch.setattr(boundary.ExpModes, "concat", no_concat)
        store = assembly.bundle(Family.SUM)
        assert assembly.bundle(Family.SUM) is store
        assert len(store) == sum(len(m) for m in assembly.families.values())
        for fam, m in assembly.families.items():
            assert np.shares_memory(m.cu, store.cu), fam
            assert np.shares_memory(m.l, store.l), fam

    def test_store_is_read_only(self, assembly):
        for arr in (assembly.bundle(Family.SUM).cu, assembly.families[Family.BLEPS2].cu,
                    assembly.families[Family.INCIDENT].l):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestEvaluation:
    def test_fields_are_real(self, assembly):
        grid = default_grid(assembly, Family.BLEPS2)
        for c in evaluate_packet(assembly, Family.BLEPS2, 0.3, grid):
            assert abs(c.imag).max() <= 1e-10 * max(abs(c.real).max(), 1e-300)

    def test_x_periodicity(self, assembly):
        x = np.array([0.3, 0.3 + assembly.x_period])
        y = np.linspace(0.0, 1.0, 5)
        for c in evaluate_packet(assembly, Family.SUM, 0.1, (x, y)):
            assert np.abs(c[:, 0] - c[:, 1]).max() <= 1e-9 * np.abs(c).max()

    def test_time_periodicity_of_single_mode(self, assembly):
        import dataclasses

        bundle = assembly.families[Family.INCIDENT]
        one = dataclasses.replace(assembly, families={Family.INCIDENT: bundle[:1]})
        period = 2 * math.pi / bundle.alpha[0]
        x = np.linspace(0.0, 10.0, 7)
        y = np.linspace(0.0, 3.0, 5)
        u0, _, _ = evaluate_packet(one, Family.INCIDENT, 0.0, (x, y))
        u1, _, _ = evaluate_packet(one, Family.INCIDENT, period, (x, y))
        assert np.abs(u0 - u1).max() <= 1e-10 * np.abs(u0).max()

    def test_divergence_free(self, assembly):
        grid = default_grid(assembly, Family.BLEPS2)
        bundle = assembly.bundle(Family.SUM)
        dxu, _, _ = evaluate_modes(bundle.d_dx(), 0.3, *grid)
        _, dyw, _ = evaluate_modes(bundle.d_dy(), 0.3, *grid)
        assert np.abs(dxu + dyw).max() <= 1e-8 * np.abs(dxu).max()

    def test_bl_decays_incident_does_not(self, assembly):
        eps = assembly.params.eps
        rate = assembly.families[Family.BLEPS2].mu.real.max()
        y = np.array([0.0, 25.0 / assembly.families[Family.BLEPS2].mu.real.min()])
        x = np.linspace(0.0, assembly.x_period, 256, endpoint=False)
        bl_u, _, _ = evaluate_packet(assembly, Family.BLEPS2, 0.0, (x, y))
        inc_u, _, _ = evaluate_packet(assembly, Family.INCIDENT, 0.0, (x, y))
        assert abs(bl_u[1]).max() <= 1e-8 * abs(bl_u[0]).max()
        assert abs(inc_u[1]).max() >= 0.1 * abs(inc_u[0]).max()

    def test_truncation_warning(self, assembly):
        y = np.linspace(0.0, 0.2 / assembly.families[Family.BLEPS2].mu.real.min(), 32)
        x = np.linspace(0.0, assembly.x_period, 64, endpoint=False)
        with pytest.warns(UserWarning, match="truncation"):
            packet_norms(assembly.bundle(Family.BLEPS2), (x, y))


@pytest.mark.parametrize("gamma,eps,nodes", [(GAMMA, 0.2, 5), (0.7344, 0.1791, 6)])
def test_packet_norms_match_full_grid(gamma, eps, nodes):
    """Per-component norms of the W0 sum and of its x- and y-derivatives
    against the whole field on the grid: L2 as the trapezoid rule in y of dx
    times the row sums of |c|^2, Linf as max |c|."""
    p = PhysParams(gamma=gamma, eps=eps)
    env = Envelope(carrier=critical_carrier(gamma, 1.0), eps=eps)
    asm = assemble_W0(p, env, QuadratureSpec(nodes))
    x, y = grid = default_grid(asm, Family.BLEPS2)
    dx = x[1] - x[0]
    bundle = asm.bundle(Family.SUM)
    for modes in (bundle, bundle.d_dx(), bundle.d_dy()):
        field = evaluate_modes(modes, 0.0, x, y)
        l2, linf = packet_norms(modes, grid)
        for got, c in zip(l2, field):
            want = math.sqrt(np.trapezoid((np.abs(c) ** 2).sum(axis=1) * dx, y))
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        total = math.sqrt(np.trapezoid(sum(np.abs(c) ** 2 for c in field).sum(axis=1) * dx, y))
        assert math.hypot(*l2) == pytest.approx(total, rel=1e-13, abs=0.0)
        assert linf == tuple(float(np.abs(c).max()) for c in field)


def test_packet_norms_hold_no_whole_grid():
    """packet_norms reduces each component's field in row blocks: on the
    ledger's widest default_grid (gamma 0.7, eps 0.118, 6 nodes per lobe,
    the BLEPS2 grid, 256 x 1436), for the W0 sum and its x- and
    y-derivatives, its traced peak beyond that of the profile pass it makes
    stays below one component grid of ny nx doubles (0.68 MB measured
    against 2.9 MB; holding whole grids, a grid and its square, took
    5.1 MB)."""
    eps = 0.118
    p = PhysParams(gamma=GAMMA, eps=eps)
    asm = assemble_W0(p, Envelope(carrier=CARRIER, eps=eps), QuadratureSpec(6))
    x, y = grid = default_grid(asm, Family.BLEPS2)
    one_grid = len(y) * len(x) * 8
    assert len(x) > 1400
    bundle = asm.bundle(Family.SUM)
    for modes in (bundle, bundle.d_dx(), bundle.d_dy()):
        packet_norms(modes, grid)  # the first call's caches
        peak = []
        for call in (lambda: boundary.mode_profiles(modes, 0.0, y),
                     lambda: packet_norms(modes, grid)):
            tracemalloc.start()
            try:
                call()
                peak.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peak[1] - peak[0] < one_grid, (peak, one_grid)


@pytest.fixture(scope="module")
def sweep():
    out = {}
    for eps in (0.4, 0.2):
        asm = make_assembly(eps)
        row = {}
        for fam in (Family.INCIDENT, Family.BLEPS2, Family.BLEPS3):
            l2, linf = packet_norms(asm.bundle(fam), default_grid(asm, fam))
            row[fam] = math.hypot(*l2), max(linf)
            row[fam, "aniso"] = l2[1] / l2[0]  # ||w|| / ||u||
        out[eps] = row
    return out


class TestSizeTable:
    """Two-point slope sanity checks; the full sweep is in acceptance."""

    @staticmethod
    def _slope(sweep, pick):
        lo, hi = pick(sweep[0.2]), pick(sweep[0.4])
        return (math.log(hi) - math.log(lo)) / (math.log(0.4) - math.log(0.2))

    @pytest.mark.parametrize(
        "fam,idx,target",
        [
            (Family.INCIDENT, 0, 0.0),
            (Family.INCIDENT, 1, 2.0),
            (Family.BLEPS2, 0, 0.0),
            (Family.BLEPS2, 1, 0.0),
            (Family.BLEPS3, 0, 1.5),
            (Family.BLEPS3, 1, 1.0),
        ],
    )
    def test_norm_slopes(self, sweep, fam, idx, target):
        slope = self._slope(sweep, lambda row: row[fam][idx])
        assert abs(slope - target) <= 0.4, slope

    def test_anisotropy_slopes(self, sweep):
        assert abs(self._slope(sweep, lambda r: r[Family.BLEPS2, "aniso"]) - 2.0) <= 0.4
        assert abs(self._slope(sweep, lambda r: r[Family.BLEPS3, "aniso"]) - 3.0) <= 0.4

    def test_dy_costs_one_layer_width(self):
        """d_y on the eps^2 layer multiplies norms by ~ eps^-2."""
        ratios = []
        for eps in (0.4, 0.2):
            asm = make_assembly(eps)
            grid = default_grid(asm, Family.BLEPS2)
            bl = asm.bundle(Family.BLEPS2)
            ratios.append(sizes(bl.d_dy(), grid)[0] / sizes(bl, grid)[0])
        slope = (math.log(ratios[0]) - math.log(ratios[1])) / (
            math.log(0.4) - math.log(0.2)
        )
        assert abs(slope + 2.0) <= 0.4, slope
