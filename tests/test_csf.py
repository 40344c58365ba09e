import math

import numpy as np
import pytest

from translab import csf, geom
from translab.csf import FlowConfig, TypeVerdict
from translab.errors import (DegenerateEdgeError, InsufficientDataError,
                             ResolutionLostError, TranslabError)


QUICK = FlowConfig(stopAmax=200.0)


@pytest.fixture(scope="module")
def circle_log():
    return csf.run(csf.make_circle(1.0, 128), QUICK)


def test_circle_radius_tracks_closed_form():
    c = csf.evolve_to(csf.make_circle(1.0, 256), 0.3)
    R = np.hypot(c.points[:, 0], c.points[:, 1])
    assert abs(R.mean() - math.sqrt(1 - 2 * c.t)) < 1e-3
    assert R.std() < 1e-6  # stays a circle


def test_circle_extinction_fit(circle_log):
    log = circle_log
    assert abs(log.fittedT - 0.5) < 1e-3
    assert log.typeVerdict is TypeVerdict.TYPE_I
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
    log = csf.SingularityLog(times=np.linspace(0, 0.1, 5),
                             Amax=np.ones(5), length=np.ones(5),
                             area=np.ones(5))
    with pytest.raises(InsufficientDataError):
        csf.classify(log)
    log.fittedT = 0.5
    with pytest.raises(InsufficientDataError):
        csf.classify(log)


def test_roundness_values():
    r, convex = csf.roundness(csf.make_circle(1.0, 256))
    assert abs(r - 1.0) < 1e-3 and convex
    r8, convex8 = csf.roundness(csf.make_ellipse(2, 1, 512))
    assert abs(r8 - 8.0) < 0.1 and convex8  # (a/b^2) / (b/a^2) = a^3/b^3


def test_roundness_flags_nonconvex():
    ang = 2 * math.pi * np.arange(256) / 256
    rr = 1.0 + 0.5 * np.cos(3 * ang)
    pts = np.stack([rr * np.cos(ang), rr * np.sin(ang)], axis=1)
    ratio, convex = csf.roundness(geom.CurveState(points=pts))
    assert not convex
    assert ratio >= 1.0


def test_resample_is_pure_reparametrization():
    c = csf.make_ellipse(2, 1, 200)
    r = csf.resample_uniform(c, 256)
    assert r.t == c.t
    ell = np.hypot(*np.diff(np.vstack([r.points, r.points[:1]]), axis=0).T)
    assert ell.std() / ell.mean() < 1e-3  # uniform arclength
    # points stay on the ellipse to interpolation accuracy
    X, Y = r.points[:, 0], r.points[:, 1]
    assert np.max(np.abs((X / 2) ** 2 + Y ** 2 - 1)) < 1e-3


def test_resolution_guard():
    pts = csf.make_circle(1.0, 64).points.copy()
    pts[10] = pts[9] + 1e-6 * (pts[10] - pts[9])
    with pytest.raises(ResolutionLostError):
        csf._check_resolution(pts)


def test_step_reduces_length():
    c = csf.make_ellipse(2, 1, 128)
    ell0 = np.hypot(*np.diff(np.vstack([c.points, c.points[:1]]), axis=0).T).sum()
    c1 = csf.step(c, FlowConfig())
    ell1 = np.hypot(*np.diff(np.vstack([c1.points, c1.points[:1]]), axis=0).T).sum()
    assert ell1 < ell0
    assert c1.t > c.t


def test_comparison_concentric_and_translated():
    rep = csf.comparison_check(csf.make_circle(0.6, 96), csf.make_circle(1.4, 96),
                               FlowConfig(stopAmax=60.0))
    assert rep.verdict
    assert np.all(np.diff(rep.minDistance) > -rep.tolerance)

    rep2 = csf.comparison_check(
        csf.make_circle(1.0, 96), csf.make_circle(1.0, 96, center=(3.0, 0.0)),
        FlowConfig(stopAmax=60.0))
    assert rep2.verdict
    assert np.all(np.diff(rep2.minDistance) > -1e-9)  # nondecreasing


def test_comparison_rejects_overlap():
    with pytest.raises(ValueError):
        csf.comparison_check(csf.make_circle(1.0, 64),
                             csf.make_circle(1.0, 64, center=(1.0, 0.0)))


def test_ellipse_quick_run_monotone_blowup():
    log = csf.run(csf.make_ellipse(2, 1, 128), FlowConfig(stopAmax=100.0))
    assert log.typeVerdict is TypeVerdict.TYPE_I
    tail = log.Amax[int(0.8 * len(log.Amax)):]
    assert np.all(np.diff(tail) > -1e-9)  # Amax grows monotonically near blow-up


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dtSafety=1.5)
    with pytest.raises(ValueError):
        FlowConfig(dtSafety=0.1)  # dt would be 20% of a circle's remaining life
    # NaN used to run to dtUnderflow (no amax >= nan), -1 to stop at t = 0
    for stop_amax in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="stopAmax"):
            FlowConfig(stopAmax=stop_amax)


def test_stop_reasons(monkeypatch):
    c = csf.make_circle(1.0, 64)
    log = csf.run(c, FlowConfig(stopAmax=20.0))
    assert log.stopReason == csf.STOP_AMAX and log.Amax[-1] >= 20.0
    assert log.steps == len(log.times) - 1
    assert log.remeshes == log.steps // 5

    with monkeypatch.context() as m:
        m.setattr(csf, "_MAX_STEPS", 7)
        log = csf.run(c, FlowConfig())
    assert log.stopReason == csf.MAX_STEPS
    assert (log.steps, log.remeshes, len(log.times)) == (7, 1, 8)

    # uniform resampling keeps edges equal on any smooth flow, so collapse
    # one edge in the remesher to reach the guard
    def collapsing(P):
        Q = P.copy()
        Q[1] = Q[0] + 1e-9 * (Q[1] - Q[0])
        return Q
    monkeypatch.setattr(csf, "_resample_arrays", collapsing)
    log = csf.run(c, FlowConfig())
    assert log.stopReason == csf.RESOLUTION_LOST
    assert (log.steps, log.remeshes, len(log.times)) == (5, 1, 5)
    with pytest.raises(ResolutionLostError):
        csf.evolve_to(c, 0.4)


def test_dt_underflow_stops_the_flow():
    # the inner loop of the limacon r = 0.5 + cos(theta) pinches until
    # dtSafety / Amax^2 falls below the float spacing of t
    th = 2 * math.pi * np.arange(64) / 64
    r = 0.5 + np.cos(th)
    c = geom.CurveState(points=np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
    log = csf.run(c, FlowConfig(stopAmax=1e12))
    assert log.stopReason == csf.DT_UNDERFLOW
    assert log.steps == len(log.times) - 1
    assert np.all(np.diff(log.times) > 0)
    assert log.Amax[-1] < 1e12


def test_flow_log_starts_at_curve_geometry(monkeypatch):
    # the flow's diagnostics and curve_geometry share one polyline kernel
    monkeypatch.setattr(csf, "_MAX_STEPS", 3)
    c = csf.make_ellipse(2.0, 1.0, 128)
    log = csf.run(c, FlowConfig())
    _, _, length, area, amax = geom.curve_geometry(c)
    assert (log.length[0], log.area[0], log.Amax[0]) == (length, area, amax)


def test_extrapolated_step_is_third_order_in_time():
    # the circle's extinction time is exact (1/2), and at these steps the time
    # error dominates: halving dtSafety divides |fittedT - 1/2| by ~8
    # (measured 5.12e-5 / 6.45e-6 = 7.9)
    c = csf.make_circle(1.0, 256)

    def err_at(dt_safety):
        return abs(csf.run(c, FlowConfig(dtSafety=dt_safety)).fittedT - 0.5)

    assert 6.0 <= err_at(4e-2) / err_at(2e-2) <= 10.0


def test_nan_curvature_is_a_degenerate_curve(monkeypatch):
    # a NaN Amax used to make dt NaN and run the flow toward maxSteps
    monkeypatch.setattr(csf, "_MAX_STEPS", 50)
    point = csf.make_circle(0.0, 64)
    segment = csf.make_ellipse(2.0, 0.0, 64)
    cfg = FlowConfig()
    for c in (point, segment):
        with pytest.raises(DegenerateEdgeError):
            csf.run(c, cfg)
    with pytest.raises(DegenerateEdgeError):
        csf.comparison_check(point, csf.make_circle(1.0, 64), cfg)


def test_evolve_to_lands_on_target():
    t_target = 0.123456789
    c = csf.evolve_to(csf.make_circle(1.0, 64), t_target)
    assert c.t == t_target
    assert csf.evolve_to(c, 0.1).t == t_target  # already past: unchanged
    with pytest.raises(TranslabError):  # beyond extinction: stopAmax first
        csf.evolve_to(csf.make_circle(1.0, 64), 0.6, FlowConfig(stopAmax=50.0))


def test_comparison_samples_every_step():
    # the inner circle has the larger curvature throughout, so the common dt
    # is its own and the pair steps exactly as the inner circle runs alone
    cfg = FlowConfig(stopAmax=60.0)
    inner = csf.make_circle(0.6, 96)
    rep = csf.comparison_check(inner, csf.make_circle(1.4, 96), cfg)
    log = csf.run(inner, cfg)
    assert len(rep.minDistance) == len(rep.times) == log.steps + 1
    assert np.array_equal(rep.times, log.times)



@pytest.mark.parametrize("cfg, reason", [(FlowConfig(stopAmax=60.0), csf.STOP_AMAX),
                                         (FlowConfig(), csf.MAX_STEPS)])
def test_comparison_report_carries_the_flow_counters(monkeypatch, cfg, reason):
    if reason == csf.MAX_STEPS:
        monkeypatch.setattr(csf, "_MAX_STEPS", 7)
    rep = csf.comparison_check(csf.make_circle(0.6, 64),
                               csf.make_circle(1.4, 64), cfg)
    assert rep.steps == len(rep.times) - 1
    assert rep.stopReason == reason
    assert rep.stopReason in (csf.STOP_AMAX, csf.RESOLUTION_LOST,
                              csf.MAX_STEPS, csf.DT_UNDERFLOW)


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
