import math

import numpy as np
import pytest

from translab import catalog, radial
from translab.errors import (NonMonotoneProfileError, StepTooLargeError,
                             TranslabError, UmbilicWindowError,
                             WindowTooNarrowError)
from translab.radial import RadialKind, RadialProfile


def test_bowl_tip_series():
    p = radial.shoot_bowl(2, 1.0, 1e-3)
    k = 5
    assert abs(np.tan(p.psi[k]) / p.r[k] + 0.5) < 1e-4  # u''(0) = -1/n
    assert p.r[0] == 0.0 and p.u[0] == 0.0 and p.psi[0] == 0.0
    assert np.all(p.psi[1:] < 0)  # downward monotone


def test_bowl_asymptotic_fit():
    p = radial.shoot_bowl(2, 100.0, 2e-3)
    fit = radial.fit_asymptotics(p, 20.0, 100.0)
    assert abs(fit.quadCoeff - 0.5) < 1e-3
    assert abs(fit.logCoeff - 1.0) < 5e-2
    assert abs(fit.remainderSlope + 1.0) < 0.3
    assert fit.remainderBound >= 0


def test_fit_on_synthetic_polynomial():
    r = np.linspace(5.0, 40.0, 400)
    p = RadialProfile(n=2, kind=RadialKind.BOWL, lam=None, r=r,
                      u=-r * r / 2, psi=np.arctan(-r), h=0.1)
    fit = radial.fit_asymptotics(p, 10.0, 40.0)
    assert abs(fit.quadCoeff - 0.5) < 1e-12
    assert abs(fit.logCoeff) < 1e-10
    assert fit.remainderBound < 1e-9


def test_fit_window_guards():
    p = radial.shoot_bowl(2, 10.0, 5e-3)
    with pytest.raises(WindowTooNarrowError):
        radial.fit_asymptotics(p, 4.0, 7.0)  # r_hi < 2 r_lo
    with pytest.raises(WindowTooNarrowError):
        radial.fit_asymptotics(p, 5.0, 20.0)  # beyond the profile


def test_catenoid_neck_conditions():
    up, lo = radial.shoot_catenoid(2, 2.0, 8.0, 5e-3)
    assert up.r[0] == 2.0 and lo.r[0] == 2.0
    assert up.u[0] == 0.0 and lo.u[0] == 0.0
    assert up.psi[0] == math.pi / 2 and lo.psi[0] == -math.pi / 2
    assert np.all(np.diff(up.r) > 0) and np.all(np.diff(lo.r) > 0)
    # wings leave the neck in opposite vertical directions
    assert up.u[5] > 0 > lo.u[5]


def test_catenoid_degenerates_to_bowl():
    up, _ = radial.shoot_catenoid(2, 1e-3, 1.6, 1e-3)
    bowl = radial.shoot_bowl(2, 1.6, 1e-3)
    slope_wing = up.interp_slope(1.0)
    slope_bowl = bowl.interp_slope(1.0)
    assert abs(slope_wing - slope_bowl) < 1e-2


def test_bowl_identity_defects_and_convergence():
    # h = 1e-3 sits at the rounding floor (defect ~ 1e-7 << 1e-5); the
    # truncation-dominated regime for the 4x ratio starts around h ~ 1e-2
    p = radial.shoot_bowl(2, 31.0, 1e-3)
    rep = radial.radial_identities_report(p, 1.0, 30.0)
    assert rep.maxDefectK1 < 1e-5
    assert rep.maxDefectH < 1e-5
    assert rep.translatorLike

    defs = []
    for h in (8e-3, 4e-3):
        ph = radial.shoot_bowl(2, 31.0, h)
        r = radial.radial_identities_report(ph, 1.0, 30.0)
        defs.append((r.maxDefectK1, r.maxDefectH))
    assert 3.0 <= defs[0][0] / defs[1][0] <= 5.0
    assert 3.0 <= defs[0][1] / defs[1][1] <= 5.0


def test_catenoid_identity_convergence():
    defs = []
    for h in (3.2e-2, 1.6e-2):
        up, _ = radial.shoot_catenoid(2, 2.0, 5.0, h)
        r = radial.radial_identities_report(up, 2.3, 4.0, umbilic_guard=5e-2)
        defs.append((r.maxDefectK1, r.maxDefectH))
    assert 3.0 <= defs[0][0] / defs[1][0] <= 5.0
    assert 3.0 <= defs[0][1] / defs[1][1] <= 5.0


def sphere_cap_profile(R=3.0):
    t = np.linspace(0.3, 1.2, 400)
    return RadialProfile(n=2, kind=RadialKind.BOWL, lam=None,
                         r=R * np.sin(t), u=-R * (1 - np.cos(t)), psi=-t,
                         h=1e-2)


def test_sphere_cap_violates_translator_identity():
    prof = sphere_cap_profile()
    rep = radial.radial_identities_report(prof, 1.0, 2.7, umbilic_guard=0.0)
    assert rep.maxDefectH > 0.1  # exact value 4/R^3 = 4/27
    assert not rep.translatorLike


def test_umbilic_window_guard():
    with pytest.raises(UmbilicWindowError):
        radial.radial_identities_report(sphere_cap_profile(), 1.0, 2.7)


def test_rescaled_profile_is_not_a_translator():
    # the translator ODE fixes speed 1: scaling breaks it (negative control)
    p = radial.shoot_bowl(2, 16.0, 4e-3)
    scaled = RadialProfile(n=2, kind=RadialKind.BOWL, lam=None,
                           r=2 * p.r, u=2 * p.u, psi=p.psi, h=p.h)
    rep = radial.radial_identities_report(scaled, 2.0, 30.0)
    good = radial.radial_identities_report(p, 1.0, 15.0)
    assert rep.maxDefectH > 100 * good.maxDefectH
    assert not rep.translatorLike


def test_step_halving_fourth_order():
    vals = {}
    for h in (2e-2, 1e-2, 5e-3):
        p = radial.shoot_bowl(2, 10.0, h)
        vals[h] = np.interp(10.0, p.r, p.u)
    d1 = abs(vals[2e-2] - vals[1e-2])
    d2 = abs(vals[1e-2] - vals[5e-3])
    assert d1 <= 5.0 * (2e-2) ** 4
    assert d2 <= 5.0 * (1e-2) ** 4


def test_grid_cross_validation_residual():
    p = radial.shoot_bowl(2, 6.0, 1e-3)
    maxima = []
    for n in (81, 161):
        g = radial.profile_to_grid(p, -2, 2, -2, 2, n, n)
        maxima.append(catalog.residual_report(g).maxAbs)
    assert maxima[0] < 5e-3
    assert 3.0 <= maxima[0] / maxima[1] <= 5.0


def test_profile_to_grid_coverage_guard():
    p = radial.shoot_bowl(2, 2.0, 1e-3)
    with pytest.raises(ValueError):
        radial.profile_to_grid(p, -3, 3, -3, 3, 21, 21)


def test_profile_to_grid_refuses_catenoid_wings():
    # tan(psi) is infinite at the neck, so Hermite has no slope there
    for wing in radial.shoot_catenoid(2, 1.0, 5.0, 1e-2):
        with pytest.raises(ValueError, match="bowl"):
            radial.profile_to_grid(wing, 1.5, 3.0, 1.5, 3.0, 11, 11)


def test_profile_to_grid_matches_cubic_spline():
    # the not-a-knot spline on (r, u) is the reference; both are O(h^4), and
    # on the benchmark's bowl grid they agree to round-off
    from scipy.interpolate import CubicSpline
    p = radial.shoot_bowl(2, 60.0, 2e-3)
    g = radial.profile_to_grid(p, -2.0, 2.0, -2.0, 2.0, 161, 161)
    X, Y = g.meshgrid()
    ref = CubicSpline(p.r, p.u)(np.hypot(X, Y))
    assert np.max(np.abs(g.values - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_profile_to_grid_is_exact_on_a_cubic():
    # Hermite on exact values and slopes reproduces any cubic profile
    r = np.concatenate([[0.0], np.cumsum(np.linspace(0.05, 0.15, 40))])
    u = 0.3 * r ** 3 - r * r - 0.5 * r
    psi = np.arctan(0.9 * r * r - 2 * r - 0.5)
    p = RadialProfile(n=2, kind=RadialKind.BOWL, lam=None, r=r, u=u, psi=psi,
                      h=0.1)
    g = radial.profile_to_grid(p, -2.0, 2.0, -1.5, 2.5, 37, 29)
    X, Y = g.meshgrid()
    R = np.hypot(X, Y)
    assert np.max(np.abs(g.values - (0.3 * R ** 3 - R * R - 0.5 * R))) <= 1e-13


def test_integrator_returns_states_and_shares_k1():
    # 11 rhs evaluations per accepted step when no step is halved: the full
    # step and the first half step share rhs(t, y)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (y[1], -y[0])
    t, y = radial._integrate_rk4(rhs, 0.0, (0.0, 1.0), 0.05,
                                 stop=lambda t, y: t >= 1.0 - 1e-12)
    assert t.shape == (21,) and y.shape == (21, 2)
    assert t[0] == 0.0 and tuple(y[0]) == (0.0, 1.0)
    assert np.allclose(np.diff(t), 0.05)   # no step was halved
    assert len(calls) == 11 * 20
    assert np.max(np.abs(y[:, 0] - np.sin(t))) < 1e-7


def test_step_too_large(monkeypatch):
    monkeypatch.setattr(radial, "_STEP_TOL", 0.0)
    with pytest.raises(StepTooLargeError):
        radial.shoot_bowl(2, 5.0, 0.1)


def test_argument_validation():
    with pytest.raises(ValueError):
        radial.shoot_bowl(1, 10.0, 1e-3)
    with pytest.raises(ValueError):
        radial.shoot_catenoid(2, -1.0, 10.0, 1e-3)
    with pytest.raises(ValueError):
        radial.shoot_catenoid(2, 2.0, 1.0, 1e-3)  # r_max below the neck


def test_non_monotone_bowl_raises(monkeypatch):
    integrate = radial._integrate_rk4

    def bumpy(rhs, t0, y0, h, stop):
        # the integrator's states with the slope angle flipped to rising
        t, y = integrate(rhs, t0, y0, h, stop)
        y[:, 1] = np.abs(y[:, 1])
        return t, y
    monkeypatch.setattr(radial, "_integrate_rk4", bumpy)
    with pytest.raises(NonMonotoneProfileError):
        radial.shoot_bowl(2, 1.0, 1e-2)
    assert issubclass(NonMonotoneProfileError, TranslabError)
