"""Boundary lifts: trace matching, limit amplitudes, field evaluation.

Traces are (u, w, d_y b) complex arrays; a lift is an ExpModes set whose
coefficients are a (U, W, B), and since U = 1 its cu are the amplitudes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavecrit.boundary import (
    ExpModes,
    IllConditionedLiftError,
    _equilibrated_solve,
    evaluate_modes,
    lift_critical,
    lift_noncritical,
    lift_nonoscillating,
    limit_amplitudes_DY,
    mode_profiles,
)
from wavecrit.characteristic import (
    ModalMatrixSpec,
    Regime,
    build_matrix,
    eigenvector,
    roots_for,
)
from wavecrit.params import PhysParams, critical_carrier

GAMMA = 0.7
CARRIER = critical_carrier(GAMMA, 0.25)


def spec_at(eps, omega=None, k=None):
    p = PhysParams(gamma=GAMMA, eps=eps)
    return ModalMatrixSpec(
        nu=p.nu,
        kappa=p.kappa,
        omega=CARRIER.omega0 if omega is None else omega,
        k=CARRIER.k0 if k is None else k,
        gamma=GAMMA,
    )


def regime_spec(regime, eps=0.2):
    sg = math.sin(GAMMA)
    nu13 = eps**2
    return {
        Regime.NON_CRITICAL: spec_at(eps, omega=2 * CARRIER.omega0, k=2 * CARRIER.k0),
        Regime.CRITICAL_SMALL_DIFF: spec_at(eps, omega=math.sqrt(sg**2 + 8 * nu13)),
        Regime.CRITICAL_DY: spec_at(eps, omega=math.sqrt(sg**2 + nu13)),
        Regime.CRITICAL_LARGE_DIFF: spec_at(eps),
        Regime.NON_OSCILLATING: spec_at(eps, omega=0.5 * nu13, k=0.5 * nu13),
    }[regime]


def random_traces(rng, n):
    z = rng.normal(size=(n, 6))
    return list(z[:, 0::2] + 1j * z[:, 1::2])


def col(tr):
    """One node's (u, w, d_y b) as the (3, 1) array a lift takes."""
    return np.asarray(tr, dtype=complex)[:, None]


def wall_values(lift):
    """(u, w, d_y b) at the wall produced by the lift's modes."""
    return np.sum(lift.traces(), axis=1)


class TestTraceMatching:
    @pytest.mark.parametrize(
        "regime",
        [
            Regime.CRITICAL_SMALL_DIFF,
            Regime.CRITICAL_DY,
            Regime.CRITICAL_LARGE_DIFF,
        ],
    )
    def test_critical_lift_100_random_triples(self, regime):
        spec = regime_spec(regime)
        rs = roots_for(spec)
        rng = np.random.default_rng(11)
        for tr in random_traces(rng, 100):
            lift = lift_critical(spec, rs, tr[:, None])
            err = np.abs(wall_values(lift) - tr).max()
            assert err <= 1e-9 * max(np.abs(tr).max(), 1e-300)

    def test_noncritical_split_100_random_triples(self):
        spec = regime_spec(Regime.NON_CRITICAL)
        rs = roots_for(spec)
        rng = np.random.default_rng(12)
        for tr in random_traces(rng, 100):
            rw, bl = lift_noncritical(spec, rs, tr[:, None])
            total = wall_values(rw) + wall_values(bl)
            err = np.abs(total - tr).max()
            assert err <= 1e-9 * np.abs(tr).max()
        assert rw.mu.tolist() == rs.by_label(2).tolist()
        assert bl.mu.tolist() == [rs.by_label(3)[0], rs.by_label(5)[0]]

    def test_nonoscillating_100_random_triples(self):
        spec = regime_spec(Regime.NON_OSCILLATING)
        rs = roots_for(spec)
        rng = np.random.default_rng(13)
        for tr in random_traces(rng, 100):
            lift, leftover = lift_nonoscillating(spec, rs, tr[:, None])
            got = wall_values(lift)
            scale = np.abs(tr).max()
            assert abs(got[0] - tr[0]) <= 1e-9 * scale
            assert abs(got[2] - tr[2]) <= 1e-9 * scale
            # leftover is exactly the unmatched part of the w-trace
            assert abs(got[1] - tr[1] - leftover[0]) <= 1e-12 * scale

    def test_zero_traces_give_zero_lift(self):
        spec = regime_spec(Regime.CRITICAL_DY)
        rs = roots_for(spec)
        lift = lift_critical(spec, rs, np.zeros((3, 1)))
        assert lift.cu.tolist() == [0.0, 0.0, 0.0]

    def test_w_only_trace_in_degenerate_regime(self):
        # (0, w, 0): nothing to lift, the whole w-trace is left over
        spec = regime_spec(Regime.NON_OSCILLATING)
        rs = roots_for(spec)
        lift, leftover = lift_nonoscillating(spec, rs, col([0.0, 2.0 - 1j, 0.0]))
        assert np.abs(lift.cu).max() <= 1e-12
        assert leftover[0] == pytest.approx(-(2.0 - 1j))

    def test_regime_preconditions(self):
        rs_crit = roots_for(regime_spec(Regime.CRITICAL_DY))
        tr = col([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            lift_noncritical(regime_spec(Regime.CRITICAL_DY), rs_crit, tr)
        with pytest.raises(ValueError):
            lift_nonoscillating(regime_spec(Regime.CRITICAL_DY), rs_crit, tr)
        rs_nc = roots_for(regime_spec(Regime.NON_CRITICAL))
        with pytest.raises(ValueError):
            lift_critical(regime_spec(Regime.NON_CRITICAL), rs_nc, tr)


@settings(max_examples=40, deadline=None)
@given(
    c=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    i=st.integers(min_value=0, max_value=2),
)
@example(c=5e-324 + 0j, i=0)  # subnormal trace: 1e-10 x its size underflows
@example(c=1e300 + 0j, i=2)
def test_lift_is_linear(c, i):
    spec = spec_at(0.2)
    rs = roots_for(spec)
    tr = np.eye(3)[:, [i]]
    a1 = lift_critical(spec, rs, tr).cu
    a2 = lift_critical(spec, rs, c * tr).cu
    assert np.abs(a2 - c * a1).max() <= 1e-12 * max(np.abs(a1).max() * abs(c), 1e-30)


def test_superposition_of_random_pairs():
    spec = spec_at(0.2)
    rs = roots_for(spec)
    rng = np.random.default_rng(21)
    for t1, t2 in zip(random_traces(rng, 20), random_traces(rng, 20)):
        a1 = lift_critical(spec, rs, t1[:, None]).cu
        a2 = lift_critical(spec, rs, t2[:, None]).cu
        a12 = lift_critical(spec, rs, (t1 + t2)[:, None]).cu
        assert np.abs(a12 - a1 - a2).max() <= 1e-12 * np.abs(a12).max()


class TestDYAmplitudes:
    def test_amplitude_growth_slopes(self):
        """|a2|, |a3| ~ eps^-2 and |a5| ~ eps^-1 for O(1) traces."""
        tr = col([1.0, 0.5 + 0.2j, -0.3j])
        eps_list = np.array([0.4, 0.3, 0.2, 0.15, 0.1])
        mags = []
        for eps in eps_list:
            spec = spec_at(eps)
            rs = roots_for(spec)
            mags.append(np.abs(lift_critical(spec, rs, tr).cu))
        mags = np.array(mags)
        loge = np.log(eps_list)
        for j, target in enumerate((-2.0, -2.0, -1.0)):
            slope = np.polyfit(loge, np.log(mags[:, j]), 1)[0]
            assert abs(slope - target) <= 0.2, (j, slope)

    def test_limit_system_structure(self):
        A2, A3, A5 = limit_amplitudes_DY(GAMMA, CARRIER.k0, 1.0 + 0.5j)
        assert abs(A2 + A3) <= 1e-12 * abs(A2)
        assert abs(A5) > 0.0

    def test_limit_system_homogeneous(self):
        assert limit_amplitudes_DY(GAMMA, CARRIER.k0, 0.0) == (0.0, 0.0, 0.0)

    def test_rescaled_amplitudes_converge_to_limits(self):
        """eps^2 a_2 -> A2bar etc., with an O(eps) rate."""
        tr = col([0.0, 1.0, 0.0])
        A2, A3, A5 = limit_amplitudes_DY(GAMMA, CARRIER.k0, 1.0)
        errs = []
        eps_list = [0.2, 0.1, 0.05]
        for eps in eps_list:
            spec = spec_at(eps)
            rs = roots_for(spec)
            a2, a3, a5 = lift_critical(spec, rs, tr).cu
            errs.append(
                max(
                    abs(eps**2 * a2 - A2),
                    abs(eps**2 * a3 - A3),
                    abs(eps * a5 - A5),
                )
            )
        rate = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert rate >= 0.7, (errs, rate)


class TestEvaluate:
    """evaluate_modes on a lift: the real field f + conj(f) = 2 Re f."""

    def test_wall_value_equals_mode_sum(self):
        spec = spec_at(0.2)
        rs = roots_for(spec)
        tr = np.array([1.0, 0.5j, -0.2])
        lift = lift_critical(spec, rs, tr[:, None])
        # x = 0 reads 2 Re(trace), a quarter wavelength reads -2 Im(trace)
        x = np.array([0.0, 0.5 * math.pi / spec.k])
        u, w, b = evaluate_modes(lift, 0.0, x, np.array([0.0]))
        want = 2.0 * np.array([tr.real, -tr.imag])
        assert u[0] == pytest.approx(want[:, 0], abs=1e-10)
        assert w[0] == pytest.approx(want[:, 1], abs=1e-10)

    def test_decay_away_from_wall(self):
        spec = spec_at(0.2)
        rs = roots_for(spec)
        lift = lift_critical(spec, rs, col([1.0, 0.5j, -0.2]))
        x = np.linspace(0.0, 2.0 * math.pi / spec.k, 16, endpoint=False)
        u, w, b = evaluate_modes(lift, 0.3, x, np.array([0.0, 2.0, 50.0]))
        peak = np.abs(u).max(axis=1)
        assert peak[1] < peak[0]
        assert peak[2] < 1e-8 * peak[0]

    def test_underflow_guard_gives_exact_zero(self):
        spec = spec_at(0.2)
        rs = roots_for(spec)
        lift = lift_critical(spec, rs, col([1.0, 0.0, 0.0]))
        u, w, b = evaluate_modes(lift, 0.0, np.array([0.0]), np.array([1e9]))
        assert u[0, 0] == 0.0 and w[0, 0] == 0.0 and b[0, 0] == 0.0

    def test_modes_satisfy_modal_system(self):
        """Each mode's (U, W, B) = (cu, cw, cb)/cu is the null vector at its mu."""
        for regime in (Regime.CRITICAL_DY, Regime.NON_CRITICAL):
            spec = regime_spec(regime)
            rs = roots_for(spec)
            tr = col([1.0, 0.5, 0.2j])
            if regime is Regime.NON_CRITICAL:
                modes = ExpModes.concat(lift_noncritical(spec, rs, tr))
            else:
                modes = lift_critical(spec, rs, tr)
            assert len(modes) == 3
            assert (modes.l == spec.k).all() and (modes.alpha == spec.omega).all()
            for n in range(len(modes)):
                vec = eigenvector(spec, modes.mu[[n]])
                assert modes.cw[n] / modes.cu[n] == pytest.approx(vec.W[0], rel=1e-12)
                assert modes.cb[n] / modes.cu[n] == pytest.approx(vec.B[0], rel=1e-12)
                A = build_matrix(spec, modes.mu[n])
                v = np.array([vec.U[0], vec.W[0], vec.B[0], vec.P[0]])
                assert np.abs(A @ v).max() <= 1e-8 * np.abs(A).max() * np.abs(v).max()

    def test_field_solves_pde_finite_differences(self):
        """FD insertion of the evaluated field into the buoyancy equation.

        The buoyancy row  d_t b + u sin g + w cos g - kappa (d_xx+d_yy) b = 0
        involves no pressure, so it can be checked directly on the field.
        """
        spec = spec_at(0.35)
        rs = roots_for(spec)
        lift = lift_critical(spec, rs, col([1.0, 0.3, 0.1]))
        sg, cg = math.sin(GAMMA), math.cos(GAMMA)
        t0, x0, y0 = 0.2, 0.5, 0.05
        ht, hx = 1e-5, 1e-5
        hy = 3e-5  # balances lambda^6 h^4 truncation vs roundoff/h^2

        def at(t, x, y):
            return [c[0, 0] for c in evaluate_modes(lift, t, np.array([x]), np.array([y]))]

        u0, w0, b0 = at(t0, x0, y0)
        bt = (at(t0 + ht, x0, y0)[2] - at(t0 - ht, x0, y0)[2]) / (2 * ht)
        bxx = (at(t0, x0 + hx, y0)[2] - 2 * b0 + at(t0, x0 - hx, y0)[2]) / hx**2

        def b_at(y):
            return at(t0, x0, y)[2]

        # 4th-order central stencil: the layer rate lambda ~ eps^-3 makes the
        # 2nd-order formula lose too many digits at any workable step
        byy = (
            -b_at(y0 + 2 * hy)
            + 16 * b_at(y0 + hy)
            - 30 * b0
            + 16 * b_at(y0 - hy)
            - b_at(y0 - 2 * hy)
        ) / (12 * hy**2)
        resid = bt + u0 * sg + w0 * cg - spec.kappa * (bxx + byy)
        scale = max(abs(bt), abs(u0 * sg), abs(spec.kappa * byy))
        assert abs(resid) <= 1e-6 * scale


def test_mode_subsets():
    """Indexing a lift gives mode sets: labels 2, 3 by slice, label 5 by index."""
    spec = spec_at(0.2)
    rs = roots_for(spec)
    lift = lift_critical(spec, rs, col([1.0, 0.5j, -0.2]))
    head, last = lift[:2], lift[2]
    assert len(head) == 2 and len(last) == 1
    assert head.mu.tolist() == [rs.by_label(2)[0], rs.by_label(3)[0]]
    assert last.mu.tolist() == rs.by_label(5).tolist() and last.cb.tolist() == [lift.cb[2]]
    joined = ExpModes.concat([head, last])
    for f in ("l", "alpha", "mu", "cu", "cw", "cb"):
        assert (getattr(joined, f) == getattr(lift, f)).all(), f
    # a lift is born of no pair: its parents default to NaN rows
    assert joined.parents.shape == (3, 2) and np.isnan(joined.parents).all()


def _pair_set(parents, coef=1.0):
    """One pair mode per row of parents, at l = 1, alpha = 0."""
    parents = np.array(parents, dtype=complex)
    n = len(parents)
    c = np.full(n, coef, dtype=complex)
    return ExpModes(np.ones(n), np.zeros(n), parents.sum(axis=1), c, 2 * c, 3 * c,
                    parents=parents)


def test_parents_follow_the_modes():
    """Indexing, concat, scaled and conj carry the parent rates."""
    m = _pair_set([[1 + 2j, 3 - 1j], [0.5j, 2.0]])
    assert m[1].parents.shape == (1, 2)
    assert m[1].parents.tolist() == [[0.5j, 2.0]]
    assert m[[1, 0]].parents.tolist() == m.parents[::-1].tolist()
    assert (m.scaled(2.0).parents == m.parents).all()
    assert (m.d_dy().parents == m.parents).all()
    assert (m.conj().parents == m.parents.conj()).all()
    joined = ExpModes.concat([m, m[0]])
    assert joined.parents.shape == (3, 2) and (joined.parents[2] == m.parents[0]).all()


class TestPairColumns:
    """mode_profiles builds a pair mode's y-column from its two parents;
    tests/test_corrector.py compares it with the direct path on W1."""

    def test_parent_below_guard_gives_exact_zero(self):
        """A parent factor below e^-700 zeroes the column exactly."""
        m = _pair_set([[750.0, 1.0 + 1j]])
        _, P = mode_profiles(m, 0.0, np.array([0.0, 0.5, 1.0]))
        assert P[:, 0, 0].tolist() == [1.0, 2.0, 3.0]
        assert (P[:, 0, 2] == 0.0).all()

    def test_two_parents_near_underflow_agree_with_direct_zero(self):
        """Each factor is e^-400 and representable, their product is not; the
        sum's exponent -800 is below the guard, so the direct column is 0."""
        m = _pair_set([[400.0 + 3j, 400.0 - 1j]], coef=1e6)
        y = np.array([0.0, 1.0])
        _, got = mode_profiles(m, 0.0, y)
        _, want = mode_profiles(ExpModes(m.l, m.alpha, m.mu, m.cu, m.cw, m.cb), 0.0, y)
        assert (want[:, 0, 1] == 0.0).all()
        assert np.abs(got[:, 0, 1]).max() <= 1e-300


def test_traces_must_be_a_triple():
    spec = spec_at(0.2)
    with pytest.raises(ValueError):
        lift_critical(spec, roots_for(spec), [1.0, 0.0])


def test_ill_conditioned_batch_names_the_node():
    """The stacked lift solve refuses a batch with one singular system in
    the middle and names that node by its (l, alpha)."""
    good = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    mat = np.stack([good, np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex), good])
    rhs = np.ones((3, 2), dtype=complex)
    l, alpha = np.array([0.1, 0.2, 0.3]), np.array([1.1, 1.2, 1.3])
    _equilibrated_solve(mat[[0, 2]], rhs[[0, 2]], l[[0, 2]], alpha[[0, 2]])
    with pytest.raises(IllConditionedLiftError, match=r"at \(l=0\.2, alpha=1\.2\)"):
        _equilibrated_solve(mat, rhs, l, alpha)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("regime, lift", [
    (Regime.CRITICAL_DY, lift_critical),
    (Regime.NON_CRITICAL, lift_noncritical),
    (Regime.NON_OSCILLATING, lift_nonoscillating),
])
def test_non_finite_trace_is_named(bad, regime, lift):
    """A NaN or inf u-trace fails the residual check of every lift, which
    names the node by its (l, alpha); the node next to it lifts as before."""
    one = regime_spec(regime)
    spec = ModalMatrixSpec(one.nu, one.kappa, np.full(2, one.omega), np.full(2, one.k),
                           one.gamma)
    traces = np.array([[1.0, 0.3, -0.5j], [bad, 0.3, -0.5j]]).T
    lift(spec, roots_for(spec), traces[:, [0, 0]])
    name = rf"at \(l={one.k:.6g}, alpha={one.omega:.6g}\)"
    with pytest.raises(IllConditionedLiftError, match=rf"lift residual nan {name}"):
        lift(spec, roots_for(spec), traces)


def test_batch_lift_equals_one_node_lifts():
    """A batch lift gives each node the modes of its one-node lift, in node
    order; a zero trace in the middle gives zero amplitudes."""
    sg = math.sin(GAMMA)
    omega = np.array([CARRIER.omega0, math.sqrt(sg**2 + 0.04), CARRIER.omega0 * 1.01])
    k = np.array([CARRIER.k0, 0.3, CARRIER.k0 * 0.99])
    p = PhysParams(gamma=GAMMA, eps=0.2)
    spec = ModalMatrixSpec(p.nu, p.kappa, omega, k, GAMMA)
    traces = np.array([[1.0, 0.0, 0.3j], [0.5j, 0.0, -1.0], [-0.2, 0.0, 2.0]])
    batch = lift_critical(spec, roots_for(spec), traces)
    assert (batch.cu[3:6] == 0).all()
    for i in range(3):
        one = ModalMatrixSpec(p.nu, p.kappa, omega[i], k[i], GAMMA)
        want = lift_critical(one, roots_for(one), traces[:, [i]])
        got = batch[3 * i:3 * i + 3]
        assert got.l.tolist() == want.l.tolist() and got.alpha.tolist() == want.alpha.tolist()
        assert np.abs(got.mu - want.mu).max() <= 1e-14 * np.abs(want.mu).max()
        if i != 1:
            assert np.abs(got.cu - want.cu).max() <= 1e-12 * np.abs(want.cu).max()
