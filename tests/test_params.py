"""Dispersion relation, group velocity and critical-carrier selection."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavecrit.params import (
    CriticalCarrier,
    PhysParams,
    criticality_zeta,
    critical_carrier,
    dispersion_omega,
    group_velocity,
)

# fmt: off
# 50-digit reference values of (k cos g - m sin g)/sqrt(k^2+m^2), frozen from
# mpmath with mp.dps = 50 (see oracle below for the generating expression)
_DISPERSION_REFERENCE = [
    # (k, m, gamma, omega_plus)
    (0.25,  0.04311918145795001, 0.7,  0.64421768723769102068910809300520846839452809723889),
    (1.0,   2.0,                 0.5,  -0.036344384936321072906627576160999539538909515353866),
    (-0.7,  0.3,                 1.2,  -0.70020751210831658758895178045272901525491721814709),
    (3.0,  -4.0,                 0.35, 0.83794187367278841925443239895852127039629790197206),
]
# fmt: on


def test_dispersion_against_high_precision_reference():
    for k, m, g, ref in _DISPERSION_REFERENCE:
        got = dispersion_omega(k, m, g)
        assert got == pytest.approx(ref, rel=1e-14)
        # the other sign is the conjugate wave (-k, -m), exactly
        assert dispersion_omega(-k, -m, g) == -got


def test_dispersion_reference_is_reproducible():
    """Regenerate one frozen value to guard against a stale table."""
    mpmath.mp.dps = 50
    k, m, g, ref = _DISPERSION_REFERENCE[1]
    w = (k * mpmath.cos(g) - m * mpmath.sin(g)) / mpmath.sqrt(k**2 + m**2)
    assert abs(float(w) - ref) < 1e-15


coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
angle = st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01)


@given(k=coord, m=coord, gamma=angle)
def test_dispersion_bounded_by_one(k, m, gamma):
    if k * k + m * m < 1e-12:
        return
    assert abs(dispersion_omega(k, m, gamma)) <= 1.0 + 1e-12


@given(k=coord, m=coord, gamma=angle)
def test_group_velocity_orthogonal_to_wavevector(k, m, gamma):
    if k * k + m * m < 1e-6:
        return
    vgk, vgm = group_velocity(k, m, gamma)
    norm = math.hypot(k, m) * math.hypot(vgk, vgm)
    if norm == 0.0:
        return
    assert abs(k * vgk + m * vgm) <= 1e-12 * norm


def test_group_velocity_is_dispersion_gradient():
    # central finite differences, h chosen for ~1e-10 truncation+roundoff
    h = 1e-6
    for k, m, g in [(0.25, 0.043, 0.7), (1.0, 2.0, 0.5), (-0.7, 0.3, 1.2)]:
        vgk, vgm = group_velocity(k, m, g)
        fd_k = (dispersion_omega(k + h, m, g) - dispersion_omega(k - h, m, g)) / (2 * h)
        fd_m = (dispersion_omega(k, m + h, g) - dispersion_omega(k, m - h, g)) / (2 * h)
        assert vgk == pytest.approx(fd_k, abs=1e-8)
        assert vgm == pytest.approx(fd_m, abs=1e-8)


def test_zero_wavevector_rejected():
    with pytest.raises(ValueError):
        dispersion_omega(0.0, 0.0, 0.7)
    with pytest.raises(ValueError):
        group_velocity(0.0, 0.0, 0.7)


# A real field holds each wave (k, m) at w with its conjugate (-k, -m) at -w.
# The ids keep the names these two cases had when a branch argument chose
# the lobe.
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["Branch.PLUS", "Branch.MINUS"])
def test_dispersion_on_arrays_matches_scalar_calls(sign):
    rng = np.random.default_rng(3)
    k0, m0 = rng.uniform(-3.0, 3.0, (2, 4, 5))
    k, m = sign * k0, sign * m0
    got = dispersion_omega(k, m, 0.7)
    want = [dispersion_omega(float(a), float(b), 0.7)
            for a, b in zip(k.ravel(), m.ravel())]
    assert got.shape == k.shape
    assert np.array_equal(got.ravel(), want)
    assert np.array_equal(got, sign * dispersion_omega(k0, m0, 0.7))


def test_zero_wavevector_rejected_in_arrays():
    with pytest.raises(ValueError, match="zero wavevector"):
        dispersion_omega(np.array([1.0, 0.0, 0.3]), np.array([0.5, 0.0, 0.2]), 0.7)


class TestCriticalCarrier:
    def test_omega0_equals_sin_gamma(self):
        for g in (0.3, 0.7, 1.0, 1.3):
            car = critical_carrier(g, 0.25)
            assert car.omega0 == pytest.approx(math.sin(g), rel=1e-12)
            assert criticality_zeta(car.omega0, g) == pytest.approx(0.0, abs=1e-12)

    def test_m0_solves_the_criticality_equation(self):
        # (k cos g - m sin g)^2 = sin^2 g (k^2 + m^2), viewed as a quadratic
        # in m, loses its m^2 term; m0 must solve the remaining linear part
        g, k0 = 0.7, 0.25
        sg, cg = math.sin(g), math.cos(g)
        car = critical_carrier(g, k0)
        quad_m2 = sg**2 - sg**2  # coefficient of m^2 cancels identically
        lin = -2.0 * k0 * cg * sg
        const = k0**2 * (cg**2 - sg**2)
        assert quad_m2 == 0.0
        assert lin * car.m0 + const == pytest.approx(0.0, abs=1e-14)

    def test_carrier_is_incident(self):
        """Every k0 > 0 is an incident carrier on the positive branch, over
        gamma across (0, pi/2), pi/4 (m0 = 0) included, and k0 over twelve
        decades: omega0 = sin(gamma) and the group velocity points at the
        slope, so critical_carrier needs no check of either."""
        for g in (0.01, 0.3, 0.7, math.pi / 4, 1.0, 1.3, math.pi / 2 - 0.01):
            for k0 in (1e-6, 0.25, 1.0, 7.0, 1e6):
                car = critical_carrier(g, k0)
                assert car.omega0 == pytest.approx(math.sin(g), rel=1e-12)
                _, vg_y = group_velocity(car.k0, car.m0, car.gamma)
                assert vg_y < 0.0, (g, k0)

    def test_wrong_sign_k0_rejected(self):
        """k0 must be finite and positive: the -k0 lobe is the conjugate."""
        for k0 in (-0.25, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"^k0 must be finite and positive, got "):
                critical_carrier(0.7, k0)

    def test_is_frozen(self):
        car = critical_carrier(0.7, 0.25)
        assert isinstance(car, CriticalCarrier)
        with pytest.raises(Exception):
            car.k0 = 1.0


class TestPhysParams:
    def test_viscosity_scaling(self):
        p = PhysParams(gamma=0.7, nu0=2.0, kappa0=0.5, eps=0.1)
        assert p.nu == pytest.approx(2.0e-6)
        assert p.kappa == pytest.approx(0.5e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0),
            dict(gamma=math.pi / 2),
            dict(gamma=0.7, eps=0.0),
            dict(gamma=0.7, eps=1.0),
            dict(gamma=0.7, nu0=20.0),  # nu0/kappa0 outside [1/10, 10]
            dict(gamma=0.7, delta=-0.1),
            dict(gamma=0.7, kappa0=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PhysParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["delta", "nu0", "kappa0"])
    def test_non_finite_is_refused_by_name(self, field, value):
        """A non-finite delta, nu0 or kappa0 is refused by its own check,
        which names it, not by a later comparison that NaN slips past."""
        with pytest.raises(ValueError) as exc:
            PhysParams(gamma=0.7, **{field: value})
        assert str(exc.value) == (f"delta must be finite and >= 0, got {value}"
                                  if field == "delta"
                                  else "nu0 and kappa0 must be positive and finite")
