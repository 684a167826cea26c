"""Characteristic polynomial, root solving, regime taxonomy, eigenvectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecrit.characteristic import (
    ClassificationError,
    ModalMatrixSpec,
    Regime,
    RootSolveError,
    build_matrix,
    char_poly,
    eigenvector,
    roots_for,
    solve_roots,
)
from wavecrit.params import PhysParams, critical_carrier

GAMMA = 0.7
CARRIER = critical_carrier(GAMMA, 0.25)


def spec_at(eps, omega=None, k=None, nu0=1.0, kappa0=1.0):
    p = PhysParams(gamma=GAMMA, nu0=nu0, kappa0=kappa0, eps=eps)
    return ModalMatrixSpec(
        nu=p.nu,
        kappa=p.kappa,
        omega=CARRIER.omega0 if omega is None else omega,
        k=CARRIER.k0 if k is None else k,
        gamma=GAMMA,
    )


# representative spec per regime at eps = 0.2 (nu^(1/3) = nu0^(1/3) eps^2)
def regime_specs(eps=0.2):
    nu13 = (1.0 * eps**6) ** (1.0 / 3.0)
    sg = math.sin(GAMMA)
    return {
        Regime.NON_CRITICAL: spec_at(eps, omega=2 * CARRIER.omega0, k=2 * CARRIER.k0),
        Regime.CRITICAL_SMALL_DIFF: spec_at(eps, omega=math.sqrt(sg**2 + 8 * nu13)),
        Regime.CRITICAL_DY: spec_at(eps, omega=math.sqrt(sg**2 + nu13)),
        Regime.CRITICAL_LARGE_DIFF: spec_at(eps),  # zeta = 0 exactly
        Regime.NON_OSCILLATING: spec_at(eps, omega=0.5 * nu13, k=0.5 * nu13),
    }


class TestCharPoly:
    def test_matches_determinant_at_random_points(self):
        """Coefficient formula vs direct 4x4 determinant (independent route)."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = ModalMatrixSpec(
                nu=10.0 ** rng.uniform(-8, 0),
                kappa=10.0 ** rng.uniform(-8, 0),
                omega=rng.uniform(-2, 2),
                k=rng.uniform(-3, 3),
                gamma=rng.uniform(0.05, 1.5),
            )
            poly = char_poly(spec)
            lam = rng.normal() + 1j * rng.normal()
            det = np.linalg.det(build_matrix(spec, lam))
            scale = max(abs(c) for c in poly.coeffs) * max(1.0, abs(lam)) ** 6
            assert abs(poly(lam) - det) <= 1e-12 * scale

    def test_odd_coefficients_vanish_except_c1(self):
        poly = char_poly(spec_at(0.2))
        assert poly.coeffs[3] == 0.0
        assert poly.coeffs[5] == 0.0
        assert poly.coeffs[1] != 0.0

    def test_derivative_is_finite_difference_limit(self):
        poly = char_poly(spec_at(0.2))
        lam = 0.3 + 0.4j
        h = 1e-7
        fd = (poly(lam + h) - poly(lam - h)) / (2 * h)
        assert abs(poly.derivative(lam) - fd) <= 1e-5 * max(abs(fd), 1.0)


class TestSolveRoots:
    def test_vieta_and_residual_random_draws(self):
        """200 random draws across all regimes: Vieta sums + residual gate."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            eps = rng.uniform(0.05, 0.5)
            regime_pick = rng.integers(0, 5)
            spec = list(regime_specs(eps).values())[regime_pick]
            poly = char_poly(spec)
            rs = solve_roots(poly)
            r = rs.roots
            c = poly.coeffs
            # sum of roots = -c5/c6 = 0; e2 = c4/c6; product = c0/c6
            s1 = r.sum()
            e2 = sum(r[i] * r[j] for i in range(6) for j in range(i + 1, 6))
            prod = np.prod(r)
            scale = np.abs(r).max()
            assert abs(s1) <= 1e-8 * 6 * scale
            assert abs(e2 - c[4] / c[6]) <= 1e-8 * max(abs(c[4] / c[6]), scale**2)
            assert abs(prod - c[0] / c[6]) <= 1e-8 * max(abs(c[0] / c[6]), 1.0)
            for root in r:
                assert abs(poly(root)) <= 1e-10 * max(abs(ci) for ci in c) * max(
                    1.0, abs(root)
                ) ** 6
            # exactly three decaying modes, always
            assert len(rs.pos_real) == 3

    def test_inviscid_rejected(self):
        spec = ModalMatrixSpec(nu=0.0, kappa=0.0, omega=0.5, k=0.3, gamma=GAMMA)
        with pytest.raises(RootSolveError):
            solve_roots(char_poly(spec))


class TestClassification:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_regime_detection(self, regime):
        spec = regime_specs()[regime]
        rs = roots_for(spec)
        assert rs.regime is regime

    @pytest.mark.parametrize("regime", list(Regime))
    def test_positive_real_labels_are_2_3_5(self, regime):
        spec = regime_specs()[regime]
        rs = roots_for(spec)
        labels = {rs.labels[i] for i in rs.pos_real}
        assert labels == {2, 3, 5}

    def test_dy_root_scalings(self):
        """|lambda_2|, |lambda_3| ~ eps^-2 and |lambda_5| ~ eps^-3."""
        eps_list = [0.4, 0.3, 0.2, 0.15, 0.1]
        nu13 = lambda e: e**2  # nu0 = 1
        mags = {2: [], 3: [], 5: []}
        for eps in eps_list:
            sg = math.sin(GAMMA)
            spec = spec_at(eps, omega=math.sqrt(sg**2 + nu13(eps)))
            rs = roots_for(spec)
            assert rs.regime is Regime.CRITICAL_DY
            for lab in mags:
                mags[lab].append(abs(rs.by_label(lab)))
        loge = np.log(eps_list)
        for lab, target in [(2, -2.0), (3, -2.0), (5, -3.0)]:
            slope = np.polyfit(loge, np.log(mags[lab]), 1)[0]
            assert abs(slope - target) <= 0.15, (lab, slope)

    def test_nonoscillating_slow_root_cubic_in_k(self):
        """Re(lambda_2) > 0 with Re(lambda_2) proportional to |k|^3."""
        eps = 0.2
        nu13 = eps**2
        ks = np.array([0.2, 0.35, 0.5, 0.8, 1.2]) * nu13
        res = []
        for k in ks:
            spec = spec_at(eps, omega=0.3 * nu13, k=float(k))
            rs = roots_for(spec)
            assert rs.regime is Regime.NON_OSCILLATING
            lam2 = rs.by_label(2)
            assert lam2.real > 0.0
            res.append(lam2.real)
        slope = np.polyfit(np.log(ks), np.log(res), 1)[0]
        assert abs(slope - 3.0) <= 0.2, slope

    def test_contested_band_warning(self):
        # |zeta| = 0.3 is small-diffusion at eps=0.2 but inside the band
        # where the non-critical reading is also defensible
        sg = math.sin(GAMMA)
        spec = spec_at(0.2, omega=math.sqrt(sg**2 + 0.3))
        rs = roots_for(spec)
        assert rs.regime is Regime.CRITICAL_SMALL_DIFF
        assert any("contested" in w for w in rs.warnings)

    def test_small_diff_boundary_clean_at_tiny_eps(self):
        # adjacent regimes stay separable when nu^(1/3) << the zeta cut
        eps = 0.05
        sg = math.sin(GAMMA)
        nu13 = eps**2
        for mult, expected in [(8.0, Regime.CRITICAL_SMALL_DIFF), (1.0, Regime.CRITICAL_DY)]:
            spec = spec_at(eps, omega=math.sqrt(sg**2 + mult * nu13))
            rs = roots_for(spec)
            assert rs.regime is expected

    @pytest.mark.parametrize("gamma", [0.5, 0.7344])
    def test_zero_omega_in_critical_regime_is_typed(self, gamma):
        """At omega = 0, |zeta| = sin^2 gamma < 0.5 picks a critical regime,
        whose predictions divide by omega."""
        spec = ModalMatrixSpec(0.08**6, 0.08**6, 0.0, 0.0819, gamma)
        with pytest.raises(ClassificationError,
                           match=r"omega = 0 with k = 0\.0819 .*CriticalSmallDiff"):
            roots_for(spec)

    def test_by_label_requires_classification(self):
        rs = solve_roots(char_poly(spec_at(0.2)))
        with pytest.raises(ValueError):
            rs.by_label(2)


class TestEigenvector:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_nullvector_residual(self, regime):
        spec = regime_specs()[regime]
        rs = roots_for(spec)
        for i in rs.pos_real:
            lam = complex(rs.roots[i])
            v = eigenvector(spec, lam).as_array()
            A = build_matrix(spec, lam)
            resid = np.abs(A @ v).max()
            scale = np.abs(A).max() * np.abs(v).max()
            assert resid <= 1e-8 * scale, (regime, rs.labels[i], resid / scale)

    def test_divergence_row_exact(self):
        spec = spec_at(0.2)
        rs = roots_for(spec)
        lam = rs.by_label(3)
        v = eigenvector(spec, lam)
        assert abs(1j * spec.k * v.U - lam * v.W) <= 1e-12 * abs(lam * v.W)

    def test_non_root_rejected(self):
        spec = spec_at(0.2)
        with pytest.raises(ValueError):
            eigenvector(spec, 1.0 + 1.0j)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(min_value=0.08, max_value=0.5),
    omega=st.floats(min_value=-1.0, max_value=1.0),
    k=st.floats(min_value=-2.0, max_value=2.0),
)
def test_three_decaying_roots_property(eps, omega, k):
    """Any admissible (omega, k != 0) yields exactly 3 roots with Re > 0.

    k = 0 is excluded: the polynomial then drops its constant and linear
    terms and lambda = 0 becomes a double root (no x-dependence, nothing
    to lift).
    """
    if abs(k) < 1e-3:
        return
    spec = ModalMatrixSpec(nu=eps**6, kappa=eps**6, omega=omega, k=k, gamma=GAMMA)
    try:
        rs = solve_roots(char_poly(spec))
    except RootSolveError:
        return  # pathological coefficient balance; solver declines honestly
    assert len(rs.pos_real) == 3
