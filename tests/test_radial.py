import math
import re

import numpy as np
import pytest

from translab import catalog, cli, radial
from translab.errors import TranslabError
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
    with pytest.raises(TranslabError, match="fit window needs r_hi >= 2 r_lo"):
        radial.fit_asymptotics(p, 4.0, 7.0)
    with pytest.raises(TranslabError, match="r_hi exceeds the profile range"):
        radial.fit_asymptotics(p, 5.0, 20.0)


def test_catenoid_neck_conditions():
    up, lo = (radial.shoot_catenoid_wing(2, 2.0, 8.0, 5e-3, kind) for kind in
              (RadialKind.CATENOID_UPPER, RadialKind.CATENOID_LOWER))
    assert up.r[0] == 2.0 and lo.r[0] == 2.0
    assert up.u[0] == 0.0 and lo.u[0] == 0.0
    assert up.psi[0] == math.pi / 2 and lo.psi[0] == -math.pi / 2
    assert np.all(np.diff(up.r) > 0) and np.all(np.diff(lo.r) > 0)
    # wings leave the neck in opposite vertical directions
    assert up.u[5] > 0 > lo.u[5]


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
        up = radial.shoot_catenoid_wing(2, 2.0, 5.0, h,
                                        RadialKind.CATENOID_UPPER)
        r = radial.radial_identities_report(up, 2.3, 4.0)
        defs.append((r.maxDefectK1, r.maxDefectH))
    assert 3.0 <= defs[0][0] / defs[1][0] <= 5.0
    assert 3.0 <= defs[0][1] / defs[1][1] <= 5.0


def sphere_cap_profile(R=3.0):
    t = np.linspace(0.3, 1.2, 400)
    return RadialProfile(n=2, kind=RadialKind.BOWL, lam=None,
                         r=R * np.sin(t), u=-R * (1 - np.cos(t)), psi=-t,
                         h=1e-2)


def test_paraboloid_violates_translator_identity():
    # u = -r^2/2 is the bowl's leading term alone; its curvatures
    # -(1 + r^2)^(-3/2) and -(1 + r^2)^(-1/2) stay apart on the window
    r = np.linspace(0.3, 3.0, 400)
    prof = RadialProfile(n=2, kind=RadialKind.BOWL, lam=None, r=r,
                         u=-r * r / 2, psi=np.arctan(-r), h=1e-2)
    rep = radial.radial_identities_report(prof, 1.0, 2.7)
    assert rep.maxDefectH > 0.1
    assert not rep.translatorLike


def test_umbilic_window_guard():
    with pytest.raises(TranslabError, match="window contains near-umbilic samples"):
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
    for kind in (RadialKind.CATENOID_UPPER, RadialKind.CATENOID_LOWER):
        wing = radial.shoot_catenoid_wing(2, 1.0, 5.0, 1e-2, kind)
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


def test_dopri5_dense_output_and_fsal_count():
    # y'' = -y from (0, 1): the continuous extension tracks sin between the
    # steps, and each attempt after the first costs six rhs calls
    calls = []

    def rhs(t, a, b, c):
        calls.append(t)
        return b, -a, 0.0
    run = radial._dopri5(rhs, 0.0, (0.0, 1.0), 0.05,
                         stop=lambda t, *_: t >= 2 * math.pi, what="t")
    assert run.t[0] == 0.0 and run.t_end >= 2 * math.pi
    assert np.allclose(run.t[1:], np.cumsum(run.dt)[:-1], rtol=0, atol=1e-15)
    assert len(calls) == 1 + 6 * (len(run.t) + run.rejected)
    ts = np.linspace(0.0, 2 * math.pi, 1001)
    y = run(ts)
    assert y.shape == (1001, 2)
    assert np.max(np.abs(y[:, 0] - np.sin(ts))) < 1e-13
    assert np.max(np.abs(y[:, 1] - np.cos(ts))) < 1e-13
    # the step ends are the integrator's own states
    assert tuple(run(np.array([0.0]))[0]) == (0.0, 1.0)


@pytest.mark.parametrize("r_max, h, samples", [(60.0, 2e-3, 30_001),
                                                (10.0, 3.7e-3, 2_704)])
def test_bowl_radii_are_exact_multiples_of_h(r_max, h, samples):
    p = radial.shoot_bowl(2, r_max, h)
    assert len(p.r) == samples
    assert np.array_equal(p.r, np.arange(samples) * h)
    assert p.r[-2] < r_max - 1e-12 <= p.r[-1]


def test_bowl_counters():
    p = radial.shoot_bowl(2, 10.0, 1e-2)
    # the first trial step is h, and nothing here needs a smaller one
    assert p.steps > 0
    assert p.rejected >= 0
    assert 0 < p.minStep <= 1e-2
    assert p.neckSamples == 0
    again = radial.shoot_bowl(2, 10.0, 1e-2)
    assert (again.steps, again.rejected, again.minStep) == \
        (p.steps, p.rejected, p.minStep)


@pytest.mark.parametrize("kind", [RadialKind.CATENOID_UPPER,
                                  RadialKind.CATENOID_LOWER])
def test_catenoid_at_cli_defaults_samples_in_r_after_the_neck(kind):
    r_max, h = 100.0, 1e-3
    p = radial.shoot_catenoid_wing(2, 1.0, r_max, h, kind)
    assert r_max / h - 1000 < len(p.r) < r_max / h
    assert np.all(np.diff(p.r) > 0) and p.r[-2] < r_max <= p.r[-1]
    # arclength through the neck, then graph form at spacing h in r
    m = p.neckSamples
    assert 0 < m < 2000
    assert np.allclose(np.diff(p.r[m:]), h, rtol=0, atol=1e-9)
    chords = np.hypot(np.diff(p.r[:m]), np.diff(p.u[:m]))
    assert np.allclose(chords, h, rtol=0, atol=h ** 3)
    assert abs(math.tan(p.psi[m])) <= p.r[m]
    assert p.steps < 50_000
    # far out both wings follow the bowl: tan(psi) / r -> -1
    assert abs(math.tan(p.psi[-1]) / p.r[-1] + 1.0) < 0.05


def test_catenoid_wing_stops_at_r_max_inside_the_neck():
    # r_max below the handover radius: the wing is arclength samples only
    up = radial.shoot_catenoid_wing(2, 1.0, 1.1, 1e-2,
                                    RadialKind.CATENOID_UPPER)
    assert up.neckSamples == len(up.r)
    assert up.r[-2] < 1.1 <= up.r[-1]
    chords = np.hypot(np.diff(up.r), np.diff(up.u))
    assert np.allclose(chords, 1e-2, rtol=0, atol=1e-6)


def test_step_too_large(monkeypatch):
    monkeypatch.setattr(radial, "_STEP_TOL", 0.0)
    with pytest.raises(TranslabError, match="at the step floor"):
        radial.shoot_bowl(2, 5.0, 0.1)


def test_argument_validation():
    with pytest.raises(ValueError):
        radial.shoot_bowl(1, 10.0, 1e-3)
    with pytest.raises(ValueError):
        radial.shoot_catenoid_wing(2, -1.0, 10.0, 1e-3,
                                   RadialKind.CATENOID_UPPER)
    with pytest.raises(ValueError):  # r_max below the neck
        radial.shoot_catenoid_wing(2, 2.0, 1.0, 1e-3, RadialKind.CATENOID_LOWER)


def test_non_monotone_bowl_raises(monkeypatch):
    integrate = radial._dopri5

    def rising(*args, **kwargs):
        # the integrator's run with the slope angle mirrored to rising
        run = integrate(*args, **kwargs)
        for c in run.coef:
            c[:, 1] *= -1
        return run
    monkeypatch.setattr(radial, "_dopri5", rising)
    with pytest.raises(TranslabError, match="bowl profile must be strictly monotone"):
        radial.shoot_bowl(2, 1.0, 1e-2)


@pytest.mark.parametrize("call", [
    lambda v: radial.shoot_bowl(2, 10.0, v),
    lambda v: radial.shoot_bowl(2, v, 1e-2),
    lambda v: radial.shoot_catenoid_wing(2, 1.0, 5.0, v,
                                         RadialKind.CATENOID_UPPER),
    lambda v: radial.shoot_catenoid_wing(2, v, 5.0, 1e-2,
                                         RadialKind.CATENOID_LOWER),
    lambda v: radial.shoot_catenoid_wing(2, 1.0, v, 1e-2,
                                         RadialKind.CATENOID_UPPER),
], ids=["bowl-h", "bowl-rmax", "wing-h", "wing-lam", "wing-rmax"])
@pytest.mark.parametrize("value", [0.0, -0.01, math.nan, math.inf])
def test_radial_inputs_must_be_finite_and_positive(call, value):
    with pytest.raises(ValueError, match="finite and positive"):
        call(value)


@pytest.mark.parametrize("kind, what", [
    ("bowl", "bowl of n = 1000000: radius r"),
    ("catenoid-upper", "catenoid wing of n = 1000000: radius r")],
    ids=["bowl", "catenoid-upper"])
def test_stiff_shoot_names_n_and_where_its_step_budget_ran_out(
        monkeypatch, tmp_path, capsys, kind, what):
    # the graph form's psi' = -1 - (n - 1) tan(psi) / r is stiff at rate
    # (n - 1) / r, so explicit steps shrink like r / n: at n = 10^6 the
    # budget runs out close to the axis, or past the catenoid's neck (at the
    # full budget, after ~4 s)
    monkeypatch.setattr(radial, "_MAX_STEPS", 1000)
    out = tmp_path / "p.csv"
    assert cli.main(["radial", "shoot", "--kind", kind, "--n", "1000000",
                     "--out", str(out)]) == 1
    std = capsys.readouterr()
    assert std.out == "" and not out.exists()
    assert re.fullmatch(rf"error: {what} = \S+ reached when the step budget "
                        r"of 1000 attempts ran out, step size \S+\n", std.err)


def test_sample_count_is_bounded_before_integrating():
    with pytest.raises(ValueError, match="r_max / h"):
        radial.shoot_bowl(2, 100.0, 1e-6)
    with pytest.raises(ValueError, match="r_max / h"):
        radial.shoot_catenoid_wing(2, 1.0, 1e300, 1.0,
                                   RadialKind.CATENOID_UPPER)


def test_n_too_large_to_use_is_refused():
    # the bowl's n^3 (n + 2) and a wing's (n - 1)/lam used to raise
    # OverflowError "int too large to convert to float"
    n = 10 ** 80
    message = re.escape(f"surface dimension n = {n} is too large")
    with pytest.raises(TranslabError, match=message):
        radial.shoot_bowl(n, 5.0, 0.1)
    for kind in (RadialKind.CATENOID_UPPER, RadialKind.CATENOID_LOWER):
        with pytest.raises(TranslabError, match=message):
            radial.shoot_catenoid_wing(n, 1.0, 5.0, 0.1, kind)


# --- the stepper against the list-based one it replaced ------------------------


def ref_dopri5(rhs, t, y, dt, stop) -> radial._Run:
    """_dopri5 as it was on lists, rhs(t, y) -> sequence of floats; it kept a
    NaN error estimate only when the first component's."""
    _A, _C, _E = radial._A, radial._C, radial._E
    floor = dt * radial._STEP_FLOOR_FACTOR
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (b1, b3, b4, b5, b6) = _A
    c2, c3, c4, c5 = _C
    e1, e3, e4, e5, e6, e7 = _E
    rec = []     # per step: t, dt, y, y_new, k1, k3, k4, k5, k6, k7
    rejected = 0
    grow = 5.0
    k1 = rhs(t, y)
    for _ in range(radial._MAX_STEPS):
        try:
            k2 = rhs(t + c2 * dt, [yi + dt * a21 * p for yi, p in zip(y, k1)])
            k3 = rhs(t + c3 * dt, [yi + dt * (a31 * p + a32 * q)
                                   for yi, p, q in zip(y, k1, k2)])
            k4 = rhs(t + c4 * dt, [yi + dt * (a41 * p + a42 * q + a43 * w)
                                   for yi, p, q, w in zip(y, k1, k2, k3)])
            k5 = rhs(t + c5 * dt, [yi + dt * (a51 * p + a52 * q + a53 * w + a54 * x)
                                   for yi, p, q, w, x in zip(y, k1, k2, k3, k4)])
            k6 = rhs(t + dt, [yi + dt * (a61 * p + a62 * q + a63 * w + a64 * x
                                         + a65 * z)
                              for yi, p, q, w, x, z in zip(y, k1, k2, k3, k4, k5)])
            yn = [yi + dt * (b1 * p + b3 * w + b4 * x + b5 * z + b6 * v)
                  for yi, p, w, x, z, v in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(t + dt, yn)
        except (ValueError, ZeroDivisionError):
            err = math.inf
        else:
            err = max([abs(dt * (e1 * p + e3 * w + e4 * x + e5 * z + e6 * v
                                 + e7 * o)) / (1.0 + abs(yi))
                       for yi, p, w, x, z, v, o in zip(yn, k1, k3, k4, k5, k6, k7)])
        fac = 0.9 * (radial._STEP_TOL / err) ** 0.2 if err > 0 else 0.0
        if not err < radial._STEP_TOL:
            rejected += 1
            dt *= max(0.2, fac)
            grow = 1.0
            if dt < floor:
                raise TranslabError("at the step floor")
            continue
        rec.append((t, dt, *y, *yn, *k1, *k3, *k4, *k5, *k6, *k7))
        t, y, k1 = t + dt, yn, k7
        if stop(t, y):
            break
        dt *= min(fac, grow) if err > 0 else grow
        grow = 5.0
    else:
        raise TranslabError("step budget exhausted")
    m = len(y)
    a = np.array(rec)
    y0, y1, k1, k3, k4, k5, k6, k7 = (a[:, 2 + i * m:2 + (i + 1) * m]
                                      for i in range(8))
    step = a[:, 1:2]
    d1, d3, d4, d5, d6, d7 = radial._D
    diff = y1 - y0
    return radial._Run(t=a[:, 0], dt=a[:, 1],
                       coef=(y0, diff, step * k1 - diff,
                             diff - step * k7 - (step * k1 - diff),
                             step * (d1 * k1 + d3 * k3 + d4 * k4 + d5 * k5
                                     + d6 * k6 + d7 * k7)),
                       t_end=t, y_end=y, rejected=rejected)


def ref_run(rhs, t, y, dt, stop):
    """ref_dopri5 on the arguments of a _dopri5 call: its rhs and stop on
    lists of len(y) floats."""
    pad = (0.0,) * (3 - len(y))
    return ref_dopri5(lambda t, z: rhs(t, *z, *pad)[:len(y)], t, list(y), dt,
                      lambda t, z: stop(t, *z, *pad))


def assert_same_run(run, ref):
    assert np.array_equal(run.t, ref.t) and np.array_equal(run.dt, ref.dt)
    assert len(run.coef) == len(ref.coef) == 5
    for c, r in zip(run.coef, ref.coef):
        assert c.shape == r.shape and np.array_equal(c, r)
    assert run.t_end == ref.t_end and run.rejected == ref.rejected
    assert np.array_equal(run.y_end, ref.y_end)


@pytest.mark.parametrize("shoot", [
    lambda: radial.shoot_bowl(2, 60.0, 2e-3),
    lambda: radial.shoot_bowl(3, 20.0, 1e-2),
    *(lambda kind=kind, lam=lam: radial.shoot_catenoid_wing(
        2, lam, 20.0, 1e-3, kind)
      for kind in (RadialKind.CATENOID_UPPER, RadialKind.CATENOID_LOWER)
      for lam in (0.3, 1.0, 3.0))],
    ids=["bowl-2", "bowl-3", *(f"{kind}-{lam}" for kind in ("upper", "lower")
                               for lam in (0.3, 1.0, 3.0))])
def test_dopri5_matches_the_list_stepper_bit_for_bit(monkeypatch, shoot):
    integrate, compared = radial._dopri5, []

    def both(rhs, t, y, dt, stop, what):
        run = integrate(rhs, t, y, dt, stop, what)
        assert_same_run(run, ref_run(rhs, t, y, dt, stop))
        compared.append(len(y))
        return run
    monkeypatch.setattr(radial, "_dopri5", both)
    shoot()
    assert compared in ([2], [3], [3, 2])


def test_dopri5_matches_the_list_stepper_on_a_toy():
    def rhs(t, a, b, c):
        return b, -a, 0.0

    def stop(t, *_):
        return t >= 2 * math.pi
    assert_same_run(radial._dopri5(rhs, 0.0, (0.0, 1.0), 0.05, stop, "t"),
                    ref_run(rhs, 0.0, (0.0, 1.0), 0.05, stop))


@pytest.mark.parametrize("m, k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_dopri5_rejects_a_nan_estimate_in_any_component(m, k):
    # past t = 0.5 component k of y' is NaN: no step can cross it.  The list
    # stepper's max kept the NaN only in the first component, and ran on to
    # y_end [3.0999999999999996, nan] with no step rejected
    def rhs(t, *y):
        out = [1.0, 1.0, 1.0 if m == 3 else 0.0]
        if t > 0.5:
            out[k] = math.nan
        return out
    with pytest.raises(TranslabError, match="local error nan above "
                                            "tolerance .* at the step floor"):
        radial._dopri5(rhs, 0.0, (0.0,) * m, 0.1, lambda t, *_: t >= 3.0, "t")
