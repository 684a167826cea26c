"""Characteristic polynomial, root solving, regime taxonomy, eigenvectors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.optimize import linear_sum_assignment

from wavecrit.boundary import lift_critical, lift_noncritical, lift_nonoscillating
from wavecrit.characteristic import (
    CRITICAL_REGIMES,
    ClassificationError,
    ModalMatrixSpec,
    Regime,
    RootSolveError,
    SingularEigenvectorError,
    UnresolvedRootPairError,
    _horner,
    _node_name,
    _polished_roots,
    _predictions,
    build_matrix,
    char_poly,
    eigenvector,
    roots_for,
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


def solved(spec):
    """(coefficients (7,), polished roots (6,)) of a one-node spec, before
    any classification."""
    c = char_poly(spec)
    return c[0], _polished_roots(c, _node_name(spec))[0]


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
            c = char_poly(spec)[0]
            lam = rng.normal() + 1j * rng.normal()
            det = np.linalg.det(build_matrix(spec, lam))
            scale = np.abs(c).max() * max(1.0, abs(lam)) ** 6
            assert abs(polyval(lam, c) - det) <= 1e-12 * scale

    def test_odd_coefficients_vanish_except_c1(self):
        c = char_poly(spec_at(0.2))[0]
        assert c[3] == 0.0
        assert c[5] == 0.0
        assert c[1] != 0.0

    def test_derivative_is_finite_difference_limit(self):
        """The p' that the Newton polish steps with."""
        c = char_poly(spec_at(0.2))
        lam = 0.3 + 0.4j
        h = 1e-7
        fd = (polyval(lam + h, c[0]) - polyval(lam - h, c[0])) / (2 * h)
        _, dp = _horner(c, np.array([[lam]]))
        assert abs(dp[0, 0] - fd) <= 1e-5 * max(abs(fd), 1.0)


class TestSolveRoots:
    def test_vieta_and_residual_random_draws(self):
        """200 random draws across all regimes: Vieta sums + residual gate."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            eps = rng.uniform(0.05, 0.5)
            regime_pick = rng.integers(0, 5)
            spec = list(regime_specs(eps).values())[regime_pick]
            c, r = solved(spec)
            # sum of roots = -c5/c6 = 0; e2 = c4/c6; product = c0/c6
            s1 = r.sum()
            e2 = sum(r[i] * r[j] for i in range(6) for j in range(i + 1, 6))
            prod = np.prod(r)
            scale = np.abs(r).max()
            assert abs(s1) <= 1e-8 * 6 * scale
            assert abs(e2 - c[4] / c[6]) <= 1e-8 * max(abs(c[4] / c[6]), scale**2)
            assert abs(prod - c[0] / c[6]) <= 1e-8 * max(abs(c[0] / c[6]), 1.0)
            for root in r:
                assert abs(polyval(root, c)) <= 1e-10 * max(abs(ci) for ci in c) * max(
                    1.0, abs(root)
                ) ** 6
            # exactly three decaying modes, always
            assert (r.real > 0).sum() == 3

    def test_inviscid_rejected(self):
        spec = ModalMatrixSpec(nu=0.0, kappa=0.0, omega=0.5, k=0.3, gamma=GAMMA)
        with pytest.raises(RootSolveError):
            roots_for(spec)


class TestClassification:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_regime_detection(self, regime):
        spec = regime_specs()[regime]
        rs = roots_for(spec)
        assert rs.regimes[0] is regime

    @pytest.mark.parametrize("regime", list(Regime))
    def test_positive_real_labels_are_2_3_5(self, regime):
        spec = regime_specs()[regime]
        rs = roots_for(spec)
        labels = set(rs.labels[0][rs.roots[0].real > 0].tolist())
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
            assert rs.regimes[0] is Regime.CRITICAL_DY
            for lab in mags:
                mags[lab].append(abs(rs.by_label(lab)[0]))
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
            assert rs.regimes[0] is Regime.NON_OSCILLATING
            lam2 = rs.by_label(2)[0]
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
        assert rs.regimes[0] is Regime.CRITICAL_SMALL_DIFF
        assert any("contested" in w for w in rs.warnings[0])

    def test_small_diff_boundary_clean_at_tiny_eps(self):
        # adjacent regimes stay separable when nu^(1/3) << the zeta cut
        eps = 0.05
        sg = math.sin(GAMMA)
        nu13 = eps**2
        for mult, expected in [(8.0, Regime.CRITICAL_SMALL_DIFF), (1.0, Regime.CRITICAL_DY)]:
            spec = spec_at(eps, omega=math.sqrt(sg**2 + mult * nu13))
            rs = roots_for(spec)
            assert rs.regimes[0] is expected

    @pytest.mark.parametrize("gamma", [0.5, 0.7344])
    def test_zero_omega_in_critical_regime_is_typed(self, gamma):
        """At omega = 0, |zeta| = sin^2 gamma < 0.5 picks a critical regime,
        whose predictions divide by omega."""
        spec = ModalMatrixSpec(0.08**6, 0.08**6, 0.0, 0.0819, gamma)
        with pytest.raises(ClassificationError,
                           match=r"omega = 0 with k = 0\.0819 .*CriticalSmallDiff"):
            roots_for(spec)


class TestEigenvector:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_nullvector_residual(self, regime):
        spec = regime_specs()[regime]
        rs = roots_for(spec)
        for i in np.flatnonzero(rs.roots[0].real > 0):
            lam = complex(rs.roots[0, i])
            vec = eigenvector(spec, [lam])
            v = np.array([vec.U[0], vec.W[0], vec.B[0], vec.P[0]])
            A = build_matrix(spec, lam)
            resid = np.abs(A @ v).max()
            scale = np.abs(A).max() * np.abs(v).max()
            assert resid <= 1e-8 * scale, (regime, rs.labels[0, i], resid / scale)

    def test_divergence_row_exact(self):
        spec = spec_at(0.2)
        rs = roots_for(spec)
        lam = rs.by_label(3)
        v = eigenvector(spec, lam)
        assert abs(1j * spec.k * v.U[0] - lam[0] * v.W[0]) <= 1e-12 * abs(lam[0] * v.W[0])

    def test_non_root_rejected(self):
        spec = spec_at(0.2)
        with pytest.raises(ValueError):
            eigenvector(spec, [1.0 + 1.0j])


def _unresolved_band(nu, omega, k, gamma=GAMMA):
    """Whether the near-double root pair at -ik cot(g) lies below Newton's
    resolution (see the characteristic module docstring):
    d max(d, |k omega| / sin^2 g) < 100 eps_mach |k cot g|^2 with
    d = nu |k|^3 / sin^4 g, twenty times the largest ratio at which a wrong
    count was measured."""
    sg = math.sin(gamma)
    d = nu * abs(k) ** 3 / sg**4
    return d * max(d, abs(k * omega) / sg**2) < 100 * np.finfo(float).eps * (k / math.tan(gamma)) ** 2


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(min_value=0.08, max_value=0.5),
    omega=st.floats(min_value=-1.0, max_value=1.0),
    k=st.floats(min_value=-2.0, max_value=2.0),
)
# points of a 2 001-point k-sweep of [-2, 2] (-0.1 and -0.066 up to rounding)
# that gave 4 and 2 roots with Re > 0 before the count check
@example(eps=0.08, omega=0.0, k=-0.09999999999999987)
@example(eps=0.08, omega=0.0, k=-0.06600000000000006)
def test_three_decaying_roots_property(eps, omega, k):
    """Any admissible (omega, k != 0) yields exactly 3 roots with Re > 0,
    or, only inside the unresolved band, UnresolvedRootPairError.

    k = 0 is excluded: the polynomial then drops its constant and linear
    terms and lambda = 0 becomes a double root (no x-dependence, nothing
    to lift).
    """
    if abs(k) < 1e-3:
        return
    spec = ModalMatrixSpec(nu=eps**6, kappa=eps**6, omega=omega, k=k, gamma=GAMMA)
    try:
        _, roots = solved(spec)
    except UnresolvedRootPairError:
        if not _unresolved_band(eps**6, omega, k):
            raise
        return
    except RootSolveError:
        return  # pathological coefficient balance; solver declines honestly
    assert (roots.real > 0).sum() == 3


@pytest.mark.parametrize("omega", [0.0, 1e-10])
def test_small_omega_sweep_never_returns_a_wrong_count(omega):
    """At omega = 0 and tiny omega the near-double pair at -ik cot(g) is
    split by less than Newton resolves for small |k| at small eps.  Each
    node of this sweep gives three decaying roots, or raises
    UnresolvedRootPairError inside the unresolved band, never 2 or 4 (28
    of its nodes at omega = 0 and 17 at omega = 1e-10 did without the
    count check)."""
    counts, unresolved = [], 0
    for eps in (0.08, 0.1, 0.2, 0.3, 0.5):
        for k in np.linspace(-2.0, 2.0, 2001)[900:1101]:
            if abs(k) < 1e-3:
                continue
            try:
                _, roots = solved(ModalMatrixSpec(eps**6, eps**6, omega, float(k), GAMMA))
                counts.append(int((roots.real > 0).sum()))
            except UnresolvedRootPairError as err:
                assert _unresolved_band(eps**6, omega, k), (eps, k, str(err))
                unresolved += 1
    assert set(counts) == {3}
    assert unresolved > 0


def _batch(eps, omega, k, gamma=GAMMA):
    """Spec batch of nodes at the given eps (nu0 = kappa0 = 1)."""
    nu = np.asarray(eps, dtype=float) ** 6
    return ModalMatrixSpec(nu, nu, np.asarray(omega, dtype=float),
                           np.asarray(k, dtype=float), gamma)


class TestBatchErrorsNameTheNode:
    """A failure inside a batch raises its typed error and names the
    offending node, here the middle one of three."""

    def test_root_solve_error(self):
        spec = ModalMatrixSpec(np.array([1e-4, 0.0, 1e-4]), np.array([1e-4, 0.0, 1e-4]),
                               np.array([0.61, 0.62, 0.63]), np.array([1.1, 1.2, 1.3]), GAMMA)
        with pytest.raises(RootSolveError, match=r"omega=0\.62, k=1\.2\)"):
            roots_for(spec)

    def test_unresolved_root_pair_error(self):
        k = np.linspace(-2.0, 2.0, 2001)[967]  # -0.066 up to rounding: 2 roots decay
        spec = _batch(0.08, [0.61, 0.0, 0.63], [1.1, k, 1.3])
        with pytest.raises(UnresolvedRootPairError, match=r"omega=0, k=-0\.066\)"):
            roots_for(spec)

    def test_classification_error(self):
        spec = _batch(0.08, [0.5, 0.0, 0.5], [1.1, 1.2, 1.3])
        with pytest.raises(ClassificationError, match=r"omega = 0 with k = 1\.2 "):
            roots_for(spec)

    def test_singular_eigenvector_error(self):
        omega, k = np.array([0.61, 0.62, 0.63]), np.array([1.1, 0.0, 1.3])
        # each node's fastest-decaying root: nonzero, also at k = 0
        lams = np.array([max(solved(_batch(0.2, w, kk))[1], key=lambda r: r.real)
                         for w, kk in zip(omega, k)])
        eigenvector(_batch(0.2, omega[[0, 2]], k[[0, 2]]), lams[[0, 2]])
        with pytest.raises(SingularEigenvectorError,
                           match=r"at node \(omega=0\.62, k=0\): k = 0") as err:
            eigenvector(_batch(0.2, omega, k), lams)
        assert f"lambda={lams[1]}" in str(err.value)


# ---------------------------------------------------------------------------
# the batch against per-node oracles
# ---------------------------------------------------------------------------


def _oracle_roots(coeffs):
    """Per-node roots: np.roots on the |c0/c6|^(1/6)-scaled polynomial, then
    8 damped Newton steps in scalar complex arithmetic."""
    c = list(coeffs)
    s = abs(c[0] / c[6]) ** (1.0 / 6.0)
    scaled = [c[j] * s**j / (c[6] * s**6) for j in range(7)]
    roots = list(np.roots(scaled[::-1]) * s)

    def horner(lam, cs):
        acc = 0j
        for x in reversed(cs):
            acc = acc * lam + x
        return acc

    dc = [j * c[j] for j in range(1, 7)]
    for _ in range(8):
        for i, r in enumerate(roots):
            p, dp = horner(r, c), horner(r, dc)
            step = p / dp if dp != 0 else 0j
            if abs(step) > 0.5 * max(abs(r), 1.0):
                step *= 0.5
            roots[i] = r - step
    return np.array(roots)


def _oracle_regime(eps, omega, k):
    """The regime cut and its warnings, node by node (thresholds as
    documented in characteristic._classify)."""
    nu13 = eps**2
    zeta = abs(omega**2 - math.sin(GAMMA) ** 2)
    if max(abs(omega), abs(k)) <= 3.0 * nu13:
        return Regime.NON_OSCILLATING, []
    if zeta >= 0.5:
        return Regime.NON_CRITICAL, []
    regime = (Regime.CRITICAL_SMALL_DIFF if zeta > 3.0 * nu13 else
              Regime.CRITICAL_DY if zeta >= nu13 / 3.0 else Regime.CRITICAL_LARGE_DIFF)
    warns = ["contested"] if 0.5 / 3.0 <= zeta <= 1.5 else []
    if regime is Regime.CRITICAL_SMALL_DIFF and zeta <= 3.0 * eps**1.5:
        warns.append("guard band")
    return regime, warns


def _samples():
    """Fixed nodes covering all five regimes and both warnings: every
    representative spec at three eps, the contested-band spec, and jittered
    copies of each."""
    rng = np.random.default_rng(11)
    sg = math.sin(GAMMA)
    eps, omega, k = [], [], []
    for e in (0.12, 0.2, 0.3):
        for spec in (*regime_specs(e).values(), spec_at(e, omega=math.sqrt(sg**2 + 0.3))):
            for jitter in (0.0, *rng.uniform(-0.05, 0.05, 2)):
                eps.append(e)
                omega.append(spec.omega * (1.0 + jitter))
                k.append(spec.k * (1.0 - jitter))
    return np.array(eps), np.array(omega), np.array(k)


@pytest.fixture(scope="module")
def sampled():
    eps, omega, k = _samples()
    spec = _batch(eps, omega, k)
    return eps, spec, roots_for(spec)


class TestBatchAgainstOracles:
    def test_samples_cover_every_regime_and_warning(self, sampled):
        _, _, rb = sampled
        assert set(rb.regimes) == set(Regime)
        text = " ".join(w for ws in rb.warnings for w in ws)
        assert "contested" in text and "guard band" in text

    def test_regimes_and_warnings(self, sampled):
        eps, spec, rb = sampled
        for i, e in enumerate(eps):
            regime, warns = _oracle_regime(e, spec.omega[i], spec.k[i])
            assert rb.regimes[i] is regime
            assert len(rb.warnings[i]) == len(warns)
            assert all(w in got for w, got in zip(warns, rb.warnings[i]))
            one = roots_for(_batch(e, spec.omega[i], spec.k[i]))
            assert one.regimes[0] is rb.regimes[i] and one.warnings[0] == rb.warnings[i]

    def test_roots_match_per_node_np_roots(self, sampled):
        _, spec, rb = sampled
        for r, c in zip(rb.roots, char_poly(spec)):
            want = _oracle_roots(c)
            # pair each oracle root with the nearest batch root
            got = r[np.abs(want[:, None] - r[None, :]).argmin(axis=1)]
            assert len(set(np.abs(want[:, None] - r[None, :]).argmin(axis=1))) == 6
            assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()

    def test_labels_match_linear_sum_assignment(self, sampled):
        _, spec, rb = sampled
        code = np.array([list(Regime).index(r) for r in rb.regimes])
        pred = _predictions(spec, code)
        for b in range(len(rb.roots)):
            cost = (np.abs(rb.roots[b][:, None] - pred[b][None, :])
                    / np.maximum(np.abs(pred[b]), 1e-300)[None, :])
            rows, cols = linear_sum_assignment(cost)
            want = np.empty(6, dtype=int)
            want[rows] = cols + 1
            assert rb.labels[b].tolist() == want.tolist(), b

    def test_lift_amplitudes_match_per_node_solve(self, sampled):
        eps, spec, rb = sampled
        rng = np.random.default_rng(5)
        lifts = ((CRITICAL_REGIMES, lift_critical, (2, 3, 5), [0, 1, 2]),
                 ((Regime.NON_CRITICAL,), lift_noncritical, (2, 3, 5), [0, 1, 2]),
                 ((Regime.NON_OSCILLATING,), lift_nonoscillating, (3, 5), [0, 2]))
        for regimes, lift, labels, rows in lifts:
            idx = np.flatnonzero([r in regimes for r in rb.regimes])
            sub = _batch(eps[idx], spec.omega[idx], spec.k[idx])
            z = rng.normal(size=(6, len(idx)))
            traces = z[0::2] + 1j * z[1::2]
            out = lift(sub, traces)
            if lift is lift_noncritical:  # reflected modes, then the layers
                a = np.concatenate([out[0].cu[:, None], out[1].cu.reshape(-1, 2)], axis=1)
            else:
                a = (out[0] if lift is lift_nonoscillating else out).cu.reshape(len(idx), -1)
            for j, i in enumerate(idx):
                one = _batch(eps[i], spec.omega[i], spec.k[i])
                rs = roots_for(one)
                lams = [rs.by_label(lab)[0] for lab in labels]
                vecs = [eigenvector(one, [lam]) for lam in lams]
                mat = np.array([[v.U[0] for v in vecs], [v.W[0] for v in vecs],
                                [-lam * v.B[0] for lam, v in zip(lams, vecs)]])
                want = np.linalg.solve(mat[rows], traces[rows, j])
                assert np.abs(a[j] - want).max() <= 1e-12 * np.abs(want).max()
