import itertools
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

import oracles
from translab import csf
from translab.errors import TranslabError


QUICK = 200.0   # csf.AMAX_STOP of the shortened flows below


@pytest.fixture(scope="module")
def circle_log():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(csf, "AMAX_STOP", QUICK)
        return csf.run(csf.make_circle(1.0, 128))


def test_circle_radius_tracks_closed_form():
    c = csf.evolve_to(csf.make_circle(1.0, 256), 0.3)
    R = np.hypot(c.points[:, 0], c.points[:, 1])
    assert abs(R.mean() - math.sqrt(1 - 2 * c.t)) < 1e-3
    assert R.std() < 1e-6  # stays a circle


def test_circle_extinction_fit(circle_log):
    log = circle_log
    assert abs(log.fittedT - 0.5) < 1e-3
    assert log.typeVerdict == csf.TYPE_I
    assert abs(log.Climsup - 1.0) < 2e-2
    w = log.fitWindowStart
    sel = log.times[w:] < log.fittedT
    s = log.Amax[w:][sel] * np.sqrt(2 * (log.fittedT - log.times[w:][sel]))
    assert np.max(np.abs(s - 1.0)) < 1e-2


def test_length_strictly_decreases(circle_log):
    assert np.all(np.diff(circle_log.length) < 0)


def test_area_decreases_at_two_pi(circle_log):
    log = circle_log
    T = log.times[-1]
    for t0, t1 in ((0, T / 3), (T / 3, 2 * T / 3), (2 * T / 3, T)):
        i0 = np.searchsorted(log.times, t0)
        i1 = min(np.searchsorted(log.times, t1), len(log.times) - 1)
        slope = (log.area[i1] - log.area[i0]) / (log.times[i1] - log.times[i0])
        assert abs(slope + 2 * math.pi) < 0.02 * 2 * math.pi


def test_blowup_lower_bound_and_time_bounds(circle_log):
    log = circle_log
    # |A|max(t) >= 1/sqrt(2 (T - t)) holds with equality for circles
    w = log.fitWindowStart
    sel = log.times[w:] < log.fittedT
    amax = log.Amax[w:][sel]
    lower = 1.0 / np.sqrt(2 * (log.fittedT - log.times[w:][sel]))
    assert np.all(amax >= 0.95 * lower)
    # extinction-time bounds: 2 n T <= diam^2 (n = 1) and T >= 1/(2 Amax(0)^2)
    diam = 2.0
    assert 2 * 1 * log.fittedT <= diam ** 2
    assert log.fittedT >= 1.0 / (2 * log.Amax[0] ** 2) - 1e-3
    assert abs(log.fittedT - 1.0 / (2 * log.Amax[0] ** 2)) < 1e-3  # equality here


def test_classify_insufficient_data():
    # no extinction time, then fewer than 20 samples before it
    t, amax = np.linspace(0, 0.1, 5), np.ones(5)
    assert csf.classify(t, amax, None) == (csf.INCONCLUSIVE, None)
    assert csf.classify(t, amax, 0.5) == (csf.INCONCLUSIVE, None)


def test_fit_extinction_of_a_rising_inverse_square_has_no_time():
    # 1/Amax^2 = 1 + t grows: a slope >= 0 gives no extinction time
    t = np.linspace(0.0, 1.0, 20)
    assert csf._fit_extinction(t, 1.0 / np.sqrt(1.0 + t)) == (14, None)


def test_log_refuses_times_that_do_not_increase():
    with pytest.raises(TranslabError, match="strictly increasing"):
        csf.SingularityLog(times=[0.0, 0.0], Amax=[1.0, 1.0],
                           length=[1.0, 1.0], area=[1.0, 1.0])


def test_classify_verdicts():
    # s = Amax sqrt(T - t): (T - t)^(-1/2) grows 31.6x monotonically, the
    # self-similar rate 1/sqrt(2 (T - t)) keeps s = 1/sqrt(2), and one dip
    # in the growing s leaves neither verdict
    T, t = 1.0, np.linspace(0.0, 0.999, 200)
    blowup = 1.0 / (T - t)
    assert csf.classify(t, blowup, T) == (csf.TYPE_II, None)
    assert csf.classify(t, 1.0 / np.sqrt(2.0 * (T - t)), T) == \
        (csf.TYPE_I, 1.0000000000000002)
    dip = blowup.copy()
    dip[100] *= 0.5
    assert csf.classify(t, dip, T) == (csf.INCONCLUSIVE, None)


def test_roundness_values():
    r, convex = oracles.roundness(csf.make_circle(1.0, 256))
    assert abs(r - 1.0) < 1e-3 and convex
    r8, convex8 = oracles.roundness(csf.make_ellipse(2, 1, 512))
    assert abs(r8 - 8.0) < 0.1 and convex8  # (a/b^2) / (b/a^2) = a^3/b^3


def test_roundness_flags_nonconvex():
    ang = 2 * math.pi * np.arange(256) / 256
    rr = 1.0 + 0.5 * np.cos(3 * ang)
    pts = np.stack([rr * np.cos(ang), rr * np.sin(ang)], axis=1)
    ratio, convex = oracles.roundness(csf.CurveState(points=pts))
    assert not convex
    assert ratio >= 1.0


def test_resample_is_pure_reparametrization():
    P = csf.make_ellipse(2, 1, 200).points
    R = csf._resample_arrays(P)
    assert R.shape == P.shape
    ell = np.hypot(*np.diff(np.vstack([R, R[:1]]), axis=0).T)
    assert ell.std() / ell.mean() < 1e-3  # uniform arclength
    # points stay on the ellipse to interpolation accuracy
    X, Y = R[:, 0], R[:, 1]
    assert np.max(np.abs((X / 2) ** 2 + Y ** 2 - 1)) < 1e-3
    assert not csf._resolution_lost(R)


def test_resolution_guard():
    pts = csf.make_circle(1.0, 64).points.copy()
    assert not csf._resolution_lost(pts)
    pts[10] = pts[9] + 1e-6 * (pts[10] - pts[9])
    assert csf._resolution_lost(pts)


def test_step_reduces_length():
    # evolve_to over the flow's first dt takes exactly one extrapolated step
    c = csf.make_ellipse(2, 1, 128)
    ell0, _, amax = csf._diagnostics(c.points, c.t)
    dt = csf.DT_SAFETY / amax ** 2
    c1 = csf.evolve_to(c, dt)
    assert np.array_equal(c1.points, csf._extrapolated_step(c.points, dt))
    ell1 = np.hypot(*np.diff(np.vstack([c1.points, c1.points[:1]]), axis=0).T).sum()
    assert ell1 < ell0
    assert c1.t == dt > c.t


def test_comparison_concentric_and_translated(monkeypatch):
    monkeypatch.setattr(csf, "AMAX_STOP", 60.0)
    rep = csf.comparison_check(csf.make_circle(0.6, 96), csf.make_circle(1.4, 96))
    assert rep.verdict == "PASS"
    assert np.all(np.diff(rep.minDistance) > -rep.tolerance)

    rep2 = csf.comparison_check(
        csf.make_circle(1.0, 96), csf.make_circle(1.0, 96, center=(3.0, 0.0)))
    assert rep2.verdict == "PASS"
    assert np.all(np.diff(rep2.minDistance) > -1e-9)  # nondecreasing
    # one area-law defect per curve, computed as csf.run computes it
    assert len(rep.areaLawDefect) == 2
    assert all(d < 1e-2 for d in rep.areaLawDefect)


def test_comparison_rejects_overlap():
    with pytest.raises(ValueError):
        csf.comparison_check(csf.make_circle(1.0, 64),
                             csf.make_circle(1.0, 64, center=(1.0, 0.0)))


def test_comparison_refuses_curves_at_different_times():
    # b.t used to be dropped: the pair flowed from a.t
    a = csf.make_circle(1.0, 64)
    b = csf.CurveState(points=csf.make_circle(3.0, 64).points, t=0.25)
    with pytest.raises(ValueError, match=r"a\.t = 0\.0 and b\.t = 0\.25"):
        csf.comparison_check(a, b)


@pytest.mark.parametrize("kwargs, named", [
    (dict(a=math.inf), "a = inf"),
    (dict(b=math.inf), "b = inf"),
    (dict(a=-math.inf), "a = -inf"),
    (dict(b=math.nan), "b = nan"),
    (dict(center=(math.inf, 0.0)), r"center = \(inf, 0\.0\)"),
    (dict(a=1.8e308, b=1.8e308), "a = inf, b = inf"),   # --radius 1.8e308
])
def test_make_ellipse_refuses_a_size_that_is_not_finite(kwargs, named):
    # inf * sin(0) printed two RuntimeWarnings before the error line
    with pytest.raises(ValueError, match=named):
        csf.make_ellipse(n=16, **kwargs)


def test_make_ellipse_sum_past_the_largest_float_is_refused_quietly():
    with pytest.raises(TranslabError, match="curve points must be finite"):
        csf.make_ellipse(1.7e308, 1.0, 16, center=(1.7e308, 0.0))


def test_ellipse_quick_run_monotone_blowup(monkeypatch):
    monkeypatch.setattr(csf, "AMAX_STOP", 100.0)
    log = csf.run(csf.make_ellipse(2, 1, 128))
    assert log.typeVerdict == csf.TYPE_I
    tail = log.Amax[int(0.8 * len(log.Amax)):]
    assert np.all(np.diff(tail) > -1e-9)  # Amax grows monotonically near blow-up


def test_stop_reasons(monkeypatch):
    c = csf.make_circle(1.0, 64)
    with monkeypatch.context() as m:
        m.setattr(csf, "AMAX_STOP", 20.0)
        log = csf.run(c)
    assert log.stopReason == csf.STOP_AMAX and log.Amax[-1] >= 20.0
    assert log.steps == len(log.times) - 1
    assert log.remeshes == log.steps // 5

    with monkeypatch.context() as m:
        m.setattr(csf, "_MAX_STEPS", 7)
        log = csf.run(c)
    assert log.stopReason == csf.MAX_STEPS
    assert (log.steps, log.remeshes, len(log.times)) == (7, 1, 8)

    # uniform resampling keeps edges equal on any smooth flow, so collapse
    # one edge in the remesher to reach the guard
    def collapsing(P):
        Q = P.copy()
        Q[1] = Q[0] + 1e-9 * (Q[1] - Q[0])
        return Q
    monkeypatch.setattr(csf, "_resample_arrays", collapsing)
    log = csf.run(c)
    assert log.stopReason == csf.RESOLUTION_LOST
    assert (log.steps, log.remeshes, len(log.times)) == (5, 1, 5)
    with pytest.raises(TranslabError, match="edge collapse after remeshing"):
        csf.evolve_to(c, 0.4)


def test_curve_past_the_stopping_curvature_stops_at_its_start():
    # no length floor: a circle of radius 1e-100 starts past AMAX_STOP
    log = csf.run(csf.make_circle(1e-100, 16))
    assert (log.stopReason, log.steps, len(log.times)) == (csf.STOP_AMAX, 0, 1)
    rep = csf.comparison_check(csf.make_circle(1e-100, 16),
                               csf.make_circle(1.0, 16))
    assert (rep.verdict, rep.stopReason) == ("PASS", csf.STOP_AMAX)
    assert rep.steps == 0


def test_dt_underflow_stops_the_flow(monkeypatch):
    # the inner loop of the limacon r = 0.5 + cos(theta) pinches until
    # DT_SAFETY / Amax^2 falls below the float spacing of t
    monkeypatch.setattr(csf, "AMAX_STOP", 1e12)
    th = 2 * math.pi * np.arange(64) / 64
    r = 0.5 + np.cos(th)
    c = csf.CurveState(points=np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
    log = csf.run(c)
    assert log.stopReason == csf.DT_UNDERFLOW
    assert log.steps == len(log.times) - 1
    assert np.all(np.diff(log.times) > 0)
    assert log.Amax[-1] < 1e12


def test_flow_log_starts_at_polyline_kernel(monkeypatch):
    # the flow's diagnostics read the one polyline kernel
    monkeypatch.setattr(csf, "_MAX_STEPS", 3)
    c = csf.make_ellipse(2.0, 1.0, 128)
    log = csf.run(c)
    kappa, length, area = csf._polyline_kernel(c.points)
    assert (log.length[0], log.area[0], log.Amax[0]) == \
        (length, abs(area), float(np.max(np.abs(kappa))))


def test_extrapolated_step_is_third_order_in_time(monkeypatch):
    # the circle's extinction time is exact (1/2), and at these steps the time
    # error dominates: halving DT_SAFETY divides |fittedT - 1/2| by ~8
    # (measured 5.12e-5 / 6.45e-6 = 7.9)
    c = csf.make_circle(1.0, 256)

    def err_at(dt_safety):
        monkeypatch.setattr(csf, "DT_SAFETY", dt_safety)
        return abs(csf.run(c).fittedT - 0.5)

    assert 6.0 <= err_at(4e-2) / err_at(2e-2) <= 10.0


def test_nan_curvature_is_a_degenerate_curve(monkeypatch):
    # a NaN Amax used to make dt NaN and run the flow toward maxSteps
    monkeypatch.setattr(csf, "_MAX_STEPS", 50)
    point = csf.make_circle(0.0, 64)
    segment = csf.make_ellipse(2.0, 0.0, 64)
    for c in (point, segment):
        with pytest.raises(TranslabError, match="curvature not finite at t=0.0"):
            csf.run(c)
    with pytest.raises(TranslabError, match="curvature not finite at t=0.0"):
        csf.comparison_check(point, csf.make_circle(1.0, 64))


def test_evolve_to_lands_on_target(monkeypatch):
    t_target = 0.123456789
    c = csf.evolve_to(csf.make_circle(1.0, 64), t_target)
    assert c.t == t_target
    assert csf.evolve_to(c, 0.1).t == t_target  # already past: unchanged
    monkeypatch.setattr(csf, "AMAX_STOP", 50.0)
    with pytest.raises(TranslabError):  # beyond extinction: stopAmax first
        csf.evolve_to(csf.make_circle(1.0, 64), 0.6)


def test_comparison_samples_every_step(monkeypatch):
    # the inner circle has the larger curvature throughout, so the common dt
    # is its own and the pair steps exactly as the inner circle runs alone
    monkeypatch.setattr(csf, "AMAX_STOP", 60.0)
    inner = csf.make_circle(0.6, 96)
    rep = csf.comparison_check(inner, csf.make_circle(1.4, 96))
    log = csf.run(inner)
    assert len(rep.minDistance) == len(rep.times) == log.steps + 1
    assert np.array_equal(rep.times, log.times)



@pytest.mark.parametrize("amax_stop, reason", [(60.0, csf.STOP_AMAX),
                                               (csf.AMAX_STOP, csf.MAX_STEPS)],
                         ids=["cfg0-stopAmax", "cfg1-maxSteps"])
def test_comparison_report_carries_the_flow_counters(monkeypatch, amax_stop,
                                                     reason):
    monkeypatch.setattr(csf, "AMAX_STOP", amax_stop)
    if reason == csf.MAX_STEPS:
        monkeypatch.setattr(csf, "_MAX_STEPS", 7)
    rep = csf.comparison_check(csf.make_circle(0.6, 64),
                               csf.make_circle(1.4, 64))
    assert rep.steps == len(rep.times) - 1
    assert rep.stopReason == reason
    assert rep.initialDistance == rep.minDistance[0]
    assert rep.leastDistance == np.min(rep.minDistance)
    assert rep.finalTime == rep.times[-1]
    assert rep.stopReason in (csf.STOP_AMAX, csf.RESOLUTION_LOST,
                              csf.MAX_STEPS, csf.DT_UNDERFLOW)


def test_comparison_verdict_fails_when_the_distance_drops(monkeypatch):
    # 1.0 for the first sample, which the disjointness check reads too, then
    # 0.1
    dists = itertools.chain([1.0], itertools.repeat(0.1))
    monkeypatch.setattr(csf, "_min_distance", lambda P, Q: next(dists))
    monkeypatch.setattr(csf, "AMAX_STOP", 60.0)
    rep = csf.comparison_check(csf.make_circle(0.6, 64),
                               csf.make_circle(1.4, 64))
    assert (rep.verdict, rep.initialDistance, rep.leastDistance) == \
        ("FAIL", 1.0, 0.1)


def test_area_law_defect_shows_an_unresolved_curve(circle_log_256):
    # at n = 32 the b = 1e-3 ellipse is a doubled segment: its flow breaks
    # A(t) = A0 - 2 pi t by two orders of magnitude, while the resolved
    # circle keeps it to 1.1e-4.  Past 10 delta(n) a flow gets no verdict;
    # both thin ellipses read Type I without that bound
    for b in (1e-3, 1e-300):
        thin = csf.run(csf.make_ellipse(2.0, b, 32))
        assert thin.areaLawDefect > 1.0
        assert not thin.areaLawDefect <= thin.areaLawBound
        assert (thin.typeVerdict, thin.Climsup) == (csf.INCONCLUSIVE, None)
    assert circle_log_256.areaLawDefect < 1e-3
    assert circle_log_256.areaLawBound == \
        10.0 * (1.0 - 256 * math.sin(2 * math.pi / 256) / (2 * math.pi))
    # the coarsest resolved Type I run found, at 3.3 delta(n), keeps its verdict
    coarse = csf.run(csf.make_ellipse(2.0, 0.5, 16))
    assert coarse.areaLawDefect <= coarse.areaLawBound
    assert coarse.typeVerdict == csf.TYPE_I


def test_area_law_defect_of_a_curve_of_zero_area_is_inf_without_warning(
        monkeypatch):
    # a bowtie: its two loops enclose opposite signed areas that cancel
    monkeypatch.setattr(csf, "AMAX_STOP", 20.0)
    bowtie = np.array([(0, 0), (0.5, 0.5), (1.5, 1.5), (2, 2), (2, 1), (2, 0),
                       (1.5, 0.5), (0.5, 1.5), (0, 2), (0, 1)], dtype=float)
    log = csf.run(csf.CurveState(points=bowtie))
    assert log.area[0] == 0.0 and log.areaLawDefect == math.inf
    # a circle whose area underflows stops at its start: one sample, and
    # the defect's numerator is 0 as well
    log = csf.run(csf.make_circle(1e-200, 16))
    assert log.area.tolist() == [0.0] and log.areaLawDefect == math.inf
    rep = csf.comparison_check(csf.make_circle(1e-170, 16),
                               csf.make_circle(1.0, 16))
    assert rep.steps == 0 and rep.areaLawDefect == [math.inf, 0.0]


def _min_distance_einsum(P, Q):
    """The 3-D einsum form _min_distance replaced, kept as its reference."""
    def pts_to_segs(pts, poly):
        d = np.roll(poly, -1, axis=0) - poly
        W = pts[:, None, :] - poly[None, :, :]
        dd = np.einsum("mk,mk->m", d, d)
        tt = np.clip(np.einsum("nmk,mk->nm", W, d) / dd[None, :], 0.0, 1.0)
        diff = W - tt[..., None] * d[None, :, :]
        return float(np.sqrt(np.min(np.einsum("nmk,nmk->nm", diff, diff))))

    return min(pts_to_segs(P, Q), pts_to_segs(Q, P))


def test_min_distance_matches_einsum_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, m = rng.integers(3, 80, size=2)
        P = rng.normal(size=(n, 2))
        Q = rng.normal(size=(m, 2)) + rng.normal(size=2)
        assert csf._min_distance(P, Q) == _min_distance_einsum(P, Q)


def test_min_distance_to_edges_whose_square_underflows():
    # a circle of radius 1e-200 has edges of 4e-201, whose squares are 0: its
    # segments count from an end, as a point's do, without a warning
    ang = 2 * math.pi * np.arange(16) / 16
    unit = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    d = csf._min_distance(1e-200 * unit, unit)
    assert d == csf._min_distance(0.0 * unit, unit)
    assert d == pytest.approx(math.cos(math.pi / 16), rel=1e-15)


def test_min_distance_of_curves_closer_than_the_root_of_the_least_float():
    # the squared distances of these nested circles underflow; the distance
    # used to read 0.0, and the comparison refused them as not disjoint
    tiny, small = csf.make_circle(1e-200, 16), csf.make_circle(3e-200, 16)
    d = csf._min_distance(tiny.points, small.points)
    assert d == pytest.approx(2e-200 * math.cos(math.pi / 16), rel=1e-14)
    rep = csf.comparison_check(tiny, small)
    assert (rep.verdict, rep.initialDistance) == ("PASS", d)


@pytest.mark.parametrize("k", [-900, -600, -40, 40, 600, 900])
def test_min_distance_scales_exactly_by_a_power_of_two(k):
    P = csf.make_circle(0.6, 32).points
    Q = csf.make_ellipse(2.0, 1.0, 48, center=(0.3, -0.1)).points
    d = csf._min_distance(P, Q)
    assert csf._min_distance(np.ldexp(P, k), np.ldexp(Q, k)) == math.ldexp(d, k)


def _cyclic_solve_reference(sub, diag, sup, rhs):
    """The copying form of _cyclic_tridiag_solve, kept as its reference: it
    leaves every argument as it was."""
    n = len(diag)
    corner_tr, corner_bl = sub[0], sup[-1]
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= corner_tr * corner_bl / gamma

    B = np.zeros((n, rhs.shape[1] + 1), order="F")
    B[:, :-1] = rhs
    B[0, -1] = gamma
    B[-1, -1] = corner_bl
    sol, info = dgtsv(sub[1:], d, sup[:-1], B, overwrite_d=1, overwrite_b=1)[3:]
    assert info == 0
    y, z = sol[:, :-1], sol[:, -1]
    vy = y[0, :] + (corner_tr / gamma) * y[-1, :]
    vz = z[0] + (corner_tr / gamma) * z[-1]
    return y - np.outer(z, vy / (1.0 + vz))


def _check_cyclic_solve(sub, diag, sup, rhs):
    """The in-place solve gives the reference's bits, leaves rhs as it was,
    and solves the dense cyclic system."""
    A = np.diag(diag) + np.roll(np.diag(sub), -1, axis=1) \
        + np.roll(np.diag(sup), 1, axis=1)
    kept = [a.copy() for a in (sub, diag, sup, rhs)]
    x = csf._cyclic_tridiag_solve(sub.copy(), diag.copy(), sup.copy(), rhs)
    assert np.array_equal(rhs, kept[3])
    ref = _cyclic_solve_reference(sub, diag, sup, rhs)
    assert all(np.array_equal(a, b) for a, b in zip((sub, diag, sup), kept))
    assert np.array_equal(x, ref)
    dense = np.linalg.solve(A, rhs)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(x - dense)) <= 1e-12 * scale
    assert np.max(np.abs(ref - dense)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [8, 9, 33, 64, 128, 300])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cyclic_solve_matches_reference_on_dominant_systems(n, k):
    rng = np.random.default_rng(1000 * n + k)
    sub, sup = rng.normal(size=(2, n))
    diag = (np.abs(sub) + np.abs(sup) + rng.uniform(0.1, 2.0, size=n)) \
        * rng.choice([-1.0, 1.0], size=n)
    _check_cyclic_solve(sub, diag, sup, rng.normal(size=(n, k)))


def test_cyclic_solve_matches_reference_on_an_ellipse_state():
    # the step system of _step_arrays and the spline system of
    # _resample_arrays at a state of the (2, 1) ellipse's flow
    P = csf.evolve_to(csf.make_ellipse(2.0, 1.0, 96), 0.05).points
    a, b = csf._weights(P)
    dt = csf.DT_SAFETY / csf._diagnostics(P, 0.05)[2] ** 2
    _check_cyclic_solve(-dt * a, 1.0 + dt * (a + b), -dt * b, P)
    h = csf._edge_lengths(P)
    h_prev = csf._shift_bwd(h)
    rhs = (csf._shift_fwd(P) - P) / h[:, None] \
        - (P - csf._shift_bwd(P)) / h_prev[:, None]
    _check_cyclic_solve(h_prev / 6.0, (h_prev + h) / 3.0, h / 6.0, rhs)


def test_cyclic_solve_reports_a_singular_system():
    # no off-diagonal entries and a zero second diagonal entry: pivot 2 is 0
    with pytest.raises(TranslabError, match=r"gtsv info 2"):
        csf._cyclic_tridiag_solve(np.zeros(4), np.array([2.0, 0.0, 1.0, 1.0]),
                                  np.zeros(4), np.ones((4, 2)))


# --- the polyline kernel and the curve container -----------------------------


def circle_points(r, n, center=(0.0, 0.0)):
    ang = 2 * math.pi * np.arange(n) / n
    return np.stack([center[0] + r * np.cos(ang),
                     center[1] + r * np.sin(ang)], axis=1)


def test_circle_curvature_length_area():
    kappa, length, area = csf._polyline_kernel(circle_points(1.0, 256))
    assert np.max(np.abs(kappa - 1.0)) < 1e-3
    assert abs(length - 2 * math.pi) < 1e-3
    assert abs(area - math.pi) < 1e-3


def test_circle_radius_two():
    kappa, _, _ = csf._polyline_kernel(circle_points(2.0, 256))
    assert np.max(np.abs(kappa - 0.5)) < 1e-3


def test_ellipse_max_curvature():
    ang = 2 * math.pi * np.arange(512) / 512
    pts = np.stack([2 * np.cos(ang), np.sin(ang)], axis=1)
    _, _, amax = csf._diagnostics(pts, 0.0)
    assert abs(amax - 2.0) < 1e-2  # kappa_max = a / b^2


def test_degenerate_edge_detection():
    # a repeated point makes kappa NaN; the flow and roundness refuse it
    c = csf.CurveState(points=circle_points(1.0, 16))
    c.points[3] = c.points[4]
    with pytest.raises(TranslabError, match="curvature not finite at t=0.0"):
        csf._diagnostics(c.points, c.t)
    with pytest.raises(TranslabError, match="consecutive curve points coincide"):
        oracles.roundness(c)


def test_curve_needs_eight_points():
    with pytest.raises(ValueError):
        csf.CurveState(points=circle_points(1.0, 7))


def test_curve_points_must_be_planar_pairs():
    with pytest.raises(TranslabError, match=r"points must be \(n, 2\)"):
        csf.CurveState(points=np.zeros((10, 3)))
