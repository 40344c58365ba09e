"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantities.

Two criteria assert a rate of convergence rather than a fixed level, because
the quantity they check tends to its ideal value only in a limit:

* criterion 8: translators are critical points of the weighted area only in
  the continuum (Ilmanen).  Newton solves the 9-point finite-difference
  equation while ``weighted_area`` uses midpoint quadrature, two different
  O(h^2) discretizations, so the first variation on the solved wing vanishes
  at O(h^2), as ``first_variation_check`` promises.  Measured with the
  radius-1.5 bump: 3.92e-2 (241x41, h = 0.1), 1.95e-2 (481x81, h = 0.05),
  5.89e-3 (961x161, h = 0.025); the 481 -> 961 ratio is 3.32, while
  241 -> 481 gives only 2.0 because the coarse grid does not resolve the
  strip-edge layer.  Exactly sampled grim-reaper data already sits at ~4e-4
  for h = 0.025, so no fixed level near 1e-6 is reachable on these grids.
  The clause asserts the 481 -> 961 ratio in [3, 5].
* criterion 10 (roundness clause): Gage-Hamilton roundness comes with a
  rate.  Linearizing the support-function equation h_t = -1/(h + h'')
  (primes in the normal angle) about the shrinking circle, mode m decays
  relative to the radius like (T - t)^((m^2 - 2)/2), so the excess curvature
  ratio of the (2,1) ellipse, carried by m = 2, is linear in T - t.  On
  n = 512, each time evolved on from the previous one, the ratio is 1.2479
  at 0.9 T (1.2478 +- 0.0002 by an independent spectral polar-graph
  integrator), 1.1171 at 0.95 T and 1.0224 at 0.99 T, so
  (ratio - 1)/(1 - t/T) = 2.34 and 2.24; continuing gives 1.0453 (rate 2.27)
  at 0.98 T and 1.0111 (rate 2.23) at 0.995 T, so 1.05 is first reached near
  0.98 T.  The clause asserts that the ratio decreases on a convex curve, is
  at most 1.05 at 0.99 T, and that the rate agrees within 10% at 0.95 T and
  0.99 T.
"""

import math

import numpy as np

import oracles
from translab import analysis, catalog, csf, radial
from translab.analysis import VariationSpec

B_ROOT2 = math.pi / math.sqrt(2)


def report(num, checks):
    """checks: list of (label, ok, detail); prints one line, asserts all."""
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{lbl}={det}" for lbl, _, det in checks)
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} [{detail}]")
    failed = [f"{lbl}: {det}" for lbl, good, det in checks if not good]
    assert not failed, f"criterion {num}: " + " | ".join(failed)


def test_criterion_01_closed_form_residuals():
    checks = []
    for theta in (0.0, math.pi / 6, math.pi / 4, 0.4):
        xw = catalog.half_width(theta)
        xs = np.linspace(-0.9 * xw, 0.9 * xw, 100)
        ys = np.linspace(-5.0, 5.0, 100)
        u, Du, D2u = oracles.evaluate(theta, xs, ys)
        worst = float(np.max(np.abs(catalog.pde_residual(u, Du, D2u))))
        checks.append((f"theta={theta:.3f}", worst <= 1e-12, f"{worst:.2e}"))
    report(1, checks)


def test_criterion_02_bowl_asymptotics():
    checks = []
    p2 = radial.shoot_bowl(2, 100.0, 1e-3)
    fit2 = radial.fit_asymptotics(p2, 20.0, 100.0)
    checks.append(("n2.quad", abs(fit2.quadCoeff - 0.5) <= 1e-3,
                   f"{fit2.quadCoeff:.6f}"))
    checks.append(("n2.log", abs(fit2.logCoeff - 1.0) <= 5e-2,
                   f"{fit2.logCoeff:.4f}"))
    checks.append(("n2.slope", abs(fit2.remainderSlope + 1.0) <= 0.3,
                   f"{fit2.remainderSlope:.3f}"))
    p3 = radial.shoot_bowl(3, 100.0, 1e-3)
    fit3 = radial.fit_asymptotics(p3, 20.0, 100.0)
    checks.append(("n3.quad", abs(fit3.quadCoeff - 0.25) <= 1e-3,
                   f"{fit3.quadCoeff:.6f}"))
    report(2, checks)


def test_criterion_03_catenoid_degeneration():
    upper = radial.shoot_catenoid_wing(2, 1e-3, 1.6, 1e-3,
                                       radial.RadialKind.CATENOID_UPPER)
    bowl = radial.shoot_bowl(2, 1.6, 1e-3)
    diff = abs(float(np.interp(1.0, upper.r, np.tan(upper.psi)))
               - float(np.interp(1.0, bowl.r, np.tan(bowl.psi))))
    report(3, [("slope@r=1", diff <= 1e-2, f"{diff:.2e}")])


def test_criterion_04_translator_identities():
    # truncation-dominated steps; at h = 1e-3 the defects sit at the rounding
    # floor (~1e-7) where the ratio is meaningless
    defs = {}
    for h in (8e-3, 4e-3):
        p = radial.shoot_bowl(2, 31.0, h)
        r = oracles.radial_identities_report(p, 1.0, 30.0)
        defs[h] = (r.maxDefectK1, r.maxDefectH)
    rk = defs[8e-3][0] / defs[4e-3][0]
    rh = defs[8e-3][1] / defs[4e-3][1]
    checks = [
        ("k1.defect", defs[8e-3][0] <= 1e-5, f"{defs[8e-3][0]:.2e}"),
        ("H.defect", defs[8e-3][1] <= 1e-5, f"{defs[8e-3][1]:.2e}"),
        ("k1.ratio", 3.0 <= rk <= 5.0, f"{rk:.2f}"),
        ("H.ratio", 3.0 <= rh <= 5.0, f"{rh:.2f}"),
    ]
    report(4, checks)


def test_criterion_05_delta_wing_existence(wing961):
    sol, rep = wing961
    trace = float(np.trace(rep.centerHessian))
    checks = [
        ("iterations", rep.iterations <= 30, str(rep.iterations)),
        ("residual", rep.finalResidualMax <= 1e-9,
         f"{rep.finalResidualMax:.2e}"),
        ("symmetry", rep.symmetryDefect <= 1e-8, f"{rep.symmetryDefect:.2e}"),
        ("concave", rep.concaveFlag, str(rep.concaveFlag)),
        ("trace", abs(trace + 1.0) <= 1e-3, f"{trace:.6f}"),
        ("asymptote", rep.asymptoteDefect <= 5e-2,
         f"{rep.asymptoteDefect:.3f}"),
    ]
    report(5, checks)


def test_criterion_06_spruck_xiao_shadow(wing961):
    sol, _ = wing961
    sx = analysis.spruck_xiao_report(sol)
    h = max(sol.hx, sol.hy)
    lo, hi = sx.rangeHoverK1
    checks = [
        ("ratio.lo", lo >= 1.0 - 10 * h, f"{lo:.4f}"),
        ("ratio.hi", hi <= 2.0, f"{hi:.4f}"),
        ("inequality", sx.fracInequalityHolds >= 0.99,
         f"{sx.fracInequalityHolds:.4f} (tau={sx.tau:.3f})"),
    ]
    report(6, checks)


def test_criterion_07_jacobi_field(wing961, wing481):
    jw_f = analysis.jacobi_field_defect(wing961[0])
    jw_c = analysis.jacobi_field_defect(wing481[0])
    rw = jw_c / jw_f
    p = radial.shoot_bowl(2, 6.0, 1e-3)
    jb = [analysis.jacobi_field_defect(
        radial.profile_to_grid(p, -2, 2, -2, 2, n, n)) for n in (81, 161)]
    rb = jb[0] / jb[1]
    checks = [
        ("wing.ratio", 3.0 <= rw <= 5.0, f"{rw:.2f} ({jw_c:.1e}->{jw_f:.1e})"),
        ("bowl.ratio", 3.0 <= rb <= 5.0, f"{rb:.2f} ({jb[0]:.1e}->{jb[1]:.1e})"),
    ]
    report(7, checks)


def test_criterion_08_first_variation(wing961, wing481):
    # the solver's FD equation and the midpoint-quadrature weighted area are
    # two O(h^2) discretizations, so the first variation vanishes at O(h^2):
    # measured 1.95e-2 (481x81) -> 5.89e-3 (961x161), ratio 3.32 (see module
    # docstring); the flat plane is a non-translator control
    spec = VariationSpec(center=(0.0, 0.0), radius=1.5)
    d_c = abs(analysis.first_variation_check(wing481[0], spec))
    d_f = abs(analysis.first_variation_check(wing961[0], spec))
    rw = d_c / d_f
    flat = oracles.from_function(lambda X, Y: np.zeros_like(X), -4, 4, -4, 4,
                                 161, 161)
    d_flat = abs(analysis.first_variation_check(flat, spec))
    checks = [
        ("wing.ratio", 3.0 <= rw <= 5.0, f"{rw:.2f} ({d_c:.2e}->{d_f:.2e})"),
        ("control", d_flat >= 1e-3, f"{d_flat:.2e}"),
    ]
    report(8, checks)


def test_criterion_09_csf_circle_exactness(circle_log_256):
    log = circle_log_256
    w = log.fitWindowStart
    sel = log.times[w:] < log.fittedT
    s = log.Amax[w:][sel] * np.sqrt(2 * (log.fittedT - log.times[w:][sel]))
    t_lower = 1.0 / (2 * log.Amax[0] ** 2)
    checks = [
        ("fittedT", abs(log.fittedT - 0.5) <= 1e-3, f"{log.fittedT:.5f}"),
        ("rescaled", float(np.max(np.abs(s - 1.0))) <= 1e-2,
         f"max|s-1|={np.max(np.abs(s - 1.0)):.2e}"),
        ("type", log.typeVerdict == csf.TYPE_I,
         log.typeVerdict),
        ("Climsup", abs(log.Climsup - 1.0) <= 2e-2, f"{log.Climsup:.4f}"),
        ("diam", 2 * 1 * log.fittedT <= 4.0, f"2nT={2 * log.fittedT:.3f}"),
        ("Tlower", abs(log.fittedT - t_lower) <= 1e-3,
         f"1/(2Amax0^2)={t_lower:.5f}"),
    ]
    report(9, checks)


def test_criterion_10_blowup_lower_bound_generic(ellipse_log_512):
    # roundness clause: the excess curvature ratio decays linearly in T - t
    # (second harmonic): measured 1.2479 at 0.9 fittedT (confirmed
    # spectrally), 1.1171 at 0.95 and 1.0224 at 0.99; assert the decrease,
    # the 1.05 target at 0.99 fittedT and the linear rate (module docstring).
    # The value at 0.9 fittedT is a property of the flow, not of the scheme:
    # it stays at 1.2478 +- 2e-4 whatever the step
    log = ellipse_log_512
    w = log.fitWindowStart
    sel = log.times[w:] < log.fittedT
    amax = log.Amax[w:][sel]
    bound = 0.95 / np.sqrt(2 * (log.fittedT - log.times[w:][sel]))
    T = log.fittedT
    c = csf.make_ellipse(2.0, 1.0, 512)
    ratios, convex, rates = [], True, []
    for frac in (0.9, 0.95, 0.99):
        c = csf.evolve_to(c, frac * T)  # continue from the previous time
        ratio, cvx = oracles.roundness(c)
        ratios.append(ratio)
        convex = convex and cvx
        rates.append((ratio - 1.0) / (1.0 - c.t / T))
    decreasing = ratios[0] > ratios[1] > ratios[2]
    rate_dev = abs(rates[1] - rates[2]) / rates[2]
    checks = [
        ("blowup", bool(np.all(amax >= bound)),
         f"min margin={float(np.min(amax * np.sqrt(2 * (log.fittedT - log.times[w:][sel])))):.4f}"),
        ("roundness", decreasing and convex,
         " > ".join(f"{r:.4f}" for r in ratios) + f" (convex={convex})"),
        ("roundness@0.9T", abs(ratios[0] - 1.2478) <= 2e-4, f"{ratios[0]:.6f}"),
        ("roundness@0.99T", ratios[2] <= 1.05, f"{ratios[2]:.4f}"),
        ("rate", rate_dev <= 0.1,
         f"{rates[1]:.2f} vs {rates[2]:.2f} (dev {rate_dev:.3f})"),
    ]
    report(10, checks)


def test_criterion_11_comparison_principle(monkeypatch):
    monkeypatch.setattr(csf, "AMAX_STOP", 200.0)
    rep = csf.comparison_check(csf.make_circle(1.0, 384),
                               csf.make_circle(2.0, 192))
    closed = np.sqrt(4 - 2 * rep.times) \
        - np.sqrt(np.clip(1 - 2 * rep.times, 0.0, None))
    err = float(np.max(np.abs(rep.minDistance - closed)))
    monkeypatch.setattr(csf, "AMAX_STOP", 100.0)
    rep2 = csf.comparison_check(
        csf.make_circle(1.0, 128), csf.make_circle(1.0, 128, center=(3.0, 0.0)))
    checks = [
        ("concentric", rep.verdict == "PASS", rep.verdict),
        ("closed-form", err <= 1e-2, f"{err:.2e}"),
        ("translated", rep2.verdict == "PASS" and bool(
            np.all(np.diff(rep2.minDistance) > -1e-9)), "PASS"),
    ]
    report(11, checks)


def test_criterion_12_area_law(circle_log_256, ellipse_log_512):
    checks = []
    for name, log in (("circle", circle_log_256), ("ellipse", ellipse_log_512)):
        T = log.times[-1]
        worst = 0.0
        for t0, t1 in ((0, T / 3), (T / 3, 2 * T / 3), (2 * T / 3, T)):
            i0 = int(np.searchsorted(log.times, t0))
            i1 = min(int(np.searchsorted(log.times, t1)), len(log.times) - 1)
            slope = (log.area[i1] - log.area[i0]) \
                / (log.times[i1] - log.times[i0])
            worst = max(worst, abs(slope + 2 * math.pi) / (2 * math.pi))
        checks.append((name, worst <= 0.02, f"worst rel dev={worst:.4f}"))
    report(12, checks)
