"""Curve shortening flow on closed polylines.

Dziuk's semi-implicit scheme (M3AS 4, 1994; Deckelnick-Dziuk-Elliott, Acta
Numerica 14, 2005) applies the arclength second difference implicitly with
its metric (edge lengths) frozen at the current state: a linearly implicit
Euler step.  Stable far beyond the explicit ceiling dt ~ min(edge)^2, it
steps with dt = DT_SAFETY / Amax^2 (2 DT_SAFETY of a circle's remaining life),
made third order by extrapolating 1, 2 and 3 substeps of dt, dt/2 and dt/3,
each refreezing the metric at its own start (_extrapolated_step).  Every
_REMESH_EVERY (5) steps the curve is resampled to uniform arclength by
periodic cubic interpolation.  A flow stops once Amax reaches the constant
AMAX_STOP (1e4), as every flow of an embedded curve does: it shrinks to a
round point (Gage-Hamilton, J. Differential Geom. 23, 1986; Grayson, Ann. of
Math. 126, 1987).  One driver (_flow) owns this policy, the other stop rules
and the common dt of a curve pair.  Its states, raw (n, 2) arrays, are
consumed by the only three entry points that move a curve: run,
evolve_to and comparison_check.  CurveState and the polyline kernel live
here with the flow, their only user; run builds its SingularityLog in one
call.  Sizes past the _MAX_* and _MIN_* bounds are refused up front.  Every
numerical failure is a TranslabError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import TranslabError

# SingularityLog.stopReason values
STOP_AMAX, RESOLUTION_LOST, MAX_STEPS, DT_UNDERFLOW = \
    "stopAmax", "resolutionLost", "maxSteps", "dtUnderflow"

_REMESH_EVERY = 5          # steps between arclength-uniform resamplings
_MAX_STEPS = 2_000_000     # step budget of one flow (stopReason MAX_STEPS)
AMAX_STOP = 1e4            # a flow stops once Amax reaches it (STOP_AMAX)
# dt = DT_SAFETY / Amax^2 is 2 DT_SAFETY of a circle's remaining life; the
# third-order step divides its time error by ~8 per halving of it
DT_SAFETY = 2e-2

# Lengths a flow may start from.  A curve of length L flows for t up to a
# circle's extinction time L^2 / (8 pi^2), and _fit_extinction squares t
# (np.polyfit): circles of radius 1e78 and up overflow there.  Edge cubes in
# _resample_arrays overflow from edges of 5.6e102.  Without the bounds,
# circles of 16 points and radius 1e-306 to 1e76 run clean (each even power
# of ten); from radius about 1e-4 down they start past AMAX_STOP and stop at
# t = 0.  Every |kappa| of a closed polygon is at least 4 / L, so within the
# bound dt = DT_SAFETY / Amax^2 <= L^2 / 800 and t + dt stay finite.
# The flow never lengthens a curve, and it stops (dtUnderflow) before a
# circle shrinks below ~1e-7 of its radius.
_MIN_LENGTH, _MAX_LENGTH = 1e-60, 1e60


class TypeVerdict(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class SingularityLog:
    """Flow diagnostics time series (the log CSV), fitted extinction data,
    the area-law defect (_area_law_defect) and its bound 10 delta(n), delta(n)
    = 1 - n sin(2 pi / n) / (2 pi) the area deficit of the regular n-gon,
    and the counters of _flow (stopReason: STOP_AMAX, RESOLUTION_LOST,
    MAX_STEPS, DT_UNDERFLOW).  Past the bound the verdict is Inconclusive."""

    times: np.ndarray = field(repr=False)
    Amax: np.ndarray = field(repr=False)
    length: np.ndarray = field(repr=False)
    area: np.ndarray = field(repr=False)
    fittedT: float | None = None
    typeVerdict: TypeVerdict | None = None
    Climsup: float | None = None
    fitWindowStart: int = 0
    steps: int = 0
    remeshes: int = 0
    stopReason: str | None = None
    areaLawDefect: float | None = None
    areaLawBound: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.Amax = np.asarray(self.Amax, dtype=float)
        self.length = np.asarray(self.length, dtype=float)
        self.area = np.asarray(self.area, dtype=float)
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise TranslabError("log times must be strictly increasing")


@dataclass
class CurveState:
    """Closed polyline under curve shortening flow."""

    points: np.ndarray  # (n, 2)
    t: float = 0.0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise TranslabError("points must be (n, 2)")
        if len(self.points) < 8:
            raise TranslabError("curve needs at least 8 points")
        if not np.all(np.isfinite(self.points)):
            raise TranslabError("curve points must be finite")


# Points per curve.  csf run at CLI defaults (452 steps) took 6.7 s and
# 66.8 MB peak RSS at n = 16,384 and 29.0 s and 81.9 MB at n = 65,536 (one
# core, 2 vCPU x86): 1.0 us per point and step, 307 B per point.  At the
# bound that is about 1 s per step (7.5 min at defaults) and 0.4 GB.
_MAX_POINTS = 1_000_000


def make_circle(radius: float = 1.0, n: int = 256, center=(0.0, 0.0)) -> CurveState:
    return make_ellipse(radius, radius, n, center)


def make_ellipse(a: float = 2.0, b: float = 1.0, n: int = 512,
                 center=(0.0, 0.0)) -> CurveState:
    if n > _MAX_POINTS:
        raise TranslabError(f"curve of n = {n} points exceeds the bound of "
                            f"{_MAX_POINTS} points")
    # inf * sin(0) would warn before CurveState refuses the points
    if not all(math.isfinite(v) for v in (a, b, *center)):
        raise TranslabError(f"curve semi-axes and center must be finite, got "
                            f"a = {a!r}, b = {b!r}, center = {tuple(center)!r}")
    ang = 2 * math.pi * np.arange(n) / n
    with np.errstate(over="ignore"):  # a sum past the largest float: refused
        pts = np.stack([center[0] + a * np.cos(ang),
                        center[1] + b * np.sin(ang)], axis=1)
    return CurveState(points=pts)


# --- raw-array kernels --------------------------------------------------------


def _shift_fwd(a: np.ndarray) -> np.ndarray:
    """a[i+1] cyclically (cheaper than np.roll)."""
    return np.concatenate((a[1:], a[:1]))


def _shift_bwd(a: np.ndarray) -> np.ndarray:
    """a[i-1] cyclically."""
    return np.concatenate((a[-1:], a[:-1]))


def _polyline_kernel(P: np.ndarray):
    """(kappa, length, signed_area) of a closed polyline P (n, 2).

    kappa[i] is the arclength second difference at vertex i dotted with the
    left normal, the normalized sum of the unit edges there turned by 90
    degrees (positive on convex counterclockwise curves).  The flow calls
    this every step: shifts and elementwise arithmetic only.
    """
    e = _shift_fwd(P) - P
    ell = np.hypot(e[:, 0], e[:, 1])
    ell_prev = _shift_bwd(ell)
    te = e / ell[:, None]
    te_prev = _shift_bwd(te)
    xss = 2.0 * (te - te_prev) / (ell + ell_prev)[:, None]
    tang = te + te_prev
    tnorm = np.hypot(tang[:, 0], tang[:, 1])
    kappa = (-xss[:, 0] * tang[:, 1] + xss[:, 1] * tang[:, 0]) / tnorm
    area = 0.5 * float(np.sum(P[:, 0] * e[:, 1] - e[:, 0] * P[:, 1]))
    return kappa, float(ell.sum()), area


def _edge_lengths(P):
    d = _shift_fwd(P) - P
    return np.hypot(d[:, 0], d[:, 1])


def _cyclic_tridiag_solve(sub, diag, sup, rhs):
    """Solve a cyclic tridiagonal system via Sherman-Morrison.

    sub[i] multiplies x_{i-1} in row i and sup[i] multiplies x_{i+1}, indices
    cyclic: the corners are the wrap-around entries sub[0] (row 0 on x_{n-1})
    and sup[-1] (row n-1 on x_0).  rhs may have several columns.
    """
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
    if info != 0:
        raise TranslabError(f"tridiagonal solve failed (gtsv info {info})")
    y, z = sol[:, :-1], sol[:, -1]
    vy = y[0, :] + (corner_tr / gamma) * y[-1, :]
    vz = z[0] + (corner_tr / gamma) * z[-1]
    return y - np.outer(z, vy / (1.0 + vz))


def _step_arrays(P: np.ndarray, dt: float, ell: np.ndarray | None = None) -> np.ndarray:
    """One implicit step of x_t = x_ss with the metric frozen at P."""
    if ell is None:
        ell = _edge_lengths(P)
    ell_prev = _shift_bwd(ell)
    a = 2.0 / (ell_prev * (ell_prev + ell))   # weight of x_{i-1}
    b = 2.0 / (ell * (ell_prev + ell))        # weight of x_{i+1}
    diag = 1.0 + dt * (a + b)
    return _cyclic_tridiag_solve(-dt * a, diag, -dt * b, P)


def _extrapolated_step(P: np.ndarray, dt: float) -> np.ndarray:
    """Extrapolated linearly implicit Euler (Deuflhard, SIAM Rev. 27, 1985;
    Hairer-Wanner II, IV.9): Tj1 takes j = 1, 2, 3 substeps of dt/j, each
    refreezing the metric at its own start, and the tableau T22 = 2 T21 - T11,
    T32 = 3 T31 - 2 T21, T33 = T32 + (T32 - T22)/2 is third order in dt."""
    ell = _edge_lengths(P)
    T11 = _step_arrays(P, dt, ell)
    T21 = _step_arrays(_step_arrays(P, dt / 2, ell), dt / 2)
    T31 = _step_arrays(_step_arrays(_step_arrays(P, dt / 3, ell), dt / 3), dt / 3)
    T22 = 2.0 * T21 - T11
    T32 = 3.0 * T31 - 2.0 * T21
    return T32 + 0.5 * (T32 - T22)


def _resample_arrays(P: np.ndarray) -> np.ndarray:
    """Periodic-cubic arclength-uniform resampling of a closed polyline."""
    m = len(P)
    seg = _edge_lengths(P)
    s = np.empty(m + 1)
    s[0] = 0.0
    np.cumsum(seg, out=s[1:])
    total = s[-1]

    # periodic cubic spline moments M_i (second derivatives at the knots):
    # (h_{i-1}/6) M_{i-1} + (h_{i-1}+h_i)/3 M_i + (h_i/6) M_{i+1} = rhs_i
    h = seg
    h_prev = _shift_bwd(h)
    Pn = _shift_fwd(P)
    Pp = _shift_bwd(P)
    rhs = (Pn - P) / h[:, None] - (P - Pp) / h_prev[:, None]
    M = _cyclic_tridiag_solve(h_prev / 6.0, (h_prev + h) / 3.0, h / 6.0, rhs)

    snew = total * np.arange(m) / m
    idx = np.clip(np.searchsorted(s, snew, side="right") - 1, 0, m - 1)
    hi = h[idx][:, None]
    t0 = (snew - s[idx])[:, None]
    t1 = hi - t0
    Mi = M[idx]
    Mi1 = M[(idx + 1) % m]
    Pi = P[idx]
    Pi1 = P[(idx + 1) % m]
    return (t1 ** 3 * Mi + t0 ** 3 * Mi1) / (6.0 * hi) \
        + (Pi / hi - hi * Mi / 6.0) * t1 + (Pi1 / hi - hi * Mi1 / 6.0) * t0


def _resolution_lost(P: np.ndarray) -> bool:
    """An edge below 1e-3 of the mean edge, even after resampling."""
    ell = _edge_lengths(P)
    return float(np.min(ell)) < 1e-3 * float(np.mean(ell))


def _diagnostics(P: np.ndarray, t: float):
    """(length, enclosed_area, amax): what the flow log needs.  A curve at
    time t whose amax is not finite (a point, a segment) is refused."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa, length, area = _polyline_kernel(P)
    amax = float(np.max(np.abs(kappa)))
    if not math.isfinite(amax):
        raise TranslabError(f"curvature not finite at t={t!r}")
    return length, abs(area), amax


# --- the flow driver ----------------------------------------------------------


def _flow(curves, t: float, t_end: float = math.inf):
    """Yield the state at t and after every step: one object, updated in
    place, with t, curves, diags ((length, area, amax) per curve), steps,
    remeshes and stopReason.  The curves share dt = DT_SAFETY / Amax^2, Amax
    the largest over them, the last step clipped to land on t_end exactly.
    The flow ends at t_end (stopReason None), after yielding a state with
    Amax >= AMAX_STOP (STOP_AMAX), after _MAX_STEPS steps (MAX_STEPS), when
    dt no longer advances t in floating point (DT_UNDERFLOW), or when a
    remesh collapses an edge (RESOLUTION_LOST; that state is not yielded).
    Before the first state it refuses a start curve whose curvature is not
    finite or whose length lies outside [_MIN_LENGTH, _MAX_LENGTH]; a later
    state that _diagnostics refuses raises too.
    """
    state = SimpleNamespace(t=t, curves=[P.copy() for P in curves], steps=0,
                            remeshes=0, stopReason=None,
                            diags=[_diagnostics(P, t) for P in curves])
    for length, _, _ in state.diags:
        if not _MIN_LENGTH <= length <= _MAX_LENGTH:
            raise TranslabError(f"curve of length {length!r} cannot be flowed: "
                                f"lengths must lie in [{_MIN_LENGTH:g}, "
                                f"{_MAX_LENGTH:g}]")
    while True:
        yield state
        amax = max(d[2] for d in state.diags)
        if state.t >= t_end:
            return
        if amax >= AMAX_STOP or state.steps == _MAX_STEPS:
            state.stopReason = STOP_AMAX if amax >= AMAX_STOP else MAX_STEPS
            return
        dt = min(DT_SAFETY / amax ** 2, t_end - state.t)
        if state.t + dt == state.t:
            state.stopReason = DT_UNDERFLOW
            return
        state.curves = [_extrapolated_step(P, dt) for P in state.curves]
        state.t = t_end if dt == t_end - state.t else state.t + dt
        state.steps += 1
        if state.steps % _REMESH_EVERY == 0:
            state.curves = [_resample_arrays(P) for P in state.curves]
            state.remeshes += 1
            if any(_resolution_lost(P) for P in state.curves):
                state.stopReason = RESOLUTION_LOST
                return
        state.diags = [_diagnostics(P, state.t) for P in state.curves]


# --- public entry points ------------------------------------------------------


def run(c0: CurveState) -> SingularityLog:
    """Evolve until one of _flow's stop rules (log.stopReason), logging
    every step, then fit the extinction time (_fit_extinction) and classify
    the singularity over the fit window (classify).  The verdict is
    Inconclusive unless areaLawDefect <= areaLawBound.
    """
    times, diags = [], []
    for state in _flow([c0.points], c0.t):
        times.append(state.t)
        diags.append(state.diags[0])
    times = np.array(times)
    length, area, amax = np.array(diags).T
    start, T = _fit_extinction(times, amax)
    verdict, climsup = classify(times[start:], amax[start:], T)
    n = len(c0.points)
    defect = _area_law_defect(times, area)
    bound = 10.0 * (1.0 - n * math.sin(2 * math.pi / n) / (2 * math.pi))
    if not defect <= bound:  # a flow that broke the area law (inf, nan too)
        verdict, climsup = TypeVerdict.INCONCLUSIVE, None
    return SingularityLog(times=times, Amax=amax, length=length, area=area,
                          fittedT=T, typeVerdict=verdict, Climsup=climsup,
                          fitWindowStart=start, steps=state.steps,
                          remeshes=state.remeshes, stopReason=state.stopReason,
                          areaLawDefect=defect, areaLawBound=bound)


def _area_law_defect(times: np.ndarray, area: np.ndarray) -> float:
    """max|A - A0 + 2 pi (t - t0)| / A0, 0 for an embedded curve
    (Gage-Hamilton, J. Differential Geom. 23, 1986); inf for A0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):  # A0 = 0: inf, nan
        return float(np.max(np.abs(area - area[0] + 2 * math.pi
                                   * (times - times[0]))) / area[0])


def evolve_to(c0: CurveState, t_target: float) -> CurveState:
    """Evolve a curve to flow time exactly t_target (the stepping of run, last
    step clipped).  Raises TranslabError if the flow stops first, on
    resolution loss or for any other reason."""
    for state in _flow([c0.points], c0.t, t_end=t_target):
        pass
    if state.stopReason == RESOLUTION_LOST:
        raise TranslabError("edge collapse after remeshing")
    if state.stopReason:
        raise TranslabError(f"{state.stopReason} at t={state.t!r} < {t_target!r}")
    return CurveState(points=state.curves[0], t=state.t)


def _fit_extinction(times: np.ndarray, amax: np.ndarray):
    """(start, T): T from 1/Amax^2 ~ 2 (T - t) fitted linearly over the final
    30% of samples, from start on; None for < 10 samples or a slope >= 0."""
    m = len(times)
    if m < 10:
        return 0, None
    start = int(0.7 * m)
    slope, intercept = np.polyfit(times[start:], 1.0 / amax[start:] ** 2, 1)
    if slope >= 0:
        return start, None
    return start, float(-intercept / slope)


def classify(t: np.ndarray, amax: np.ndarray, T: float | None):
    """(verdict, Climsup) from the rescaled curvature s(t) = Amax sqrt(T - t)
    over the fit window samples (t, amax) before T.

    Type I when s stays bounded (max/median <= 3), with Climsup = sqrt(2) *
    max s; Type II when s grows monotonically by >= 10x.  The limsup
    definition is not computable at finite resolution, so anything else is
    Inconclusive, and so is a window without T or with fewer than 20 samples
    before it.
    """
    if T is None:
        return TypeVerdict.INCONCLUSIVE, None
    sel = t < T
    if sel.sum() < 20:
        return TypeVerdict.INCONCLUSIVE, None
    s = amax[sel] * np.sqrt(T - t[sel])
    ratio = float(np.max(s) / np.median(s))
    if ratio <= 3.0:
        return TypeVerdict.TYPE_I, float(np.sqrt(2.0) * np.max(s))
    if s[-1] / s[0] >= 10.0 and np.all(np.diff(s) > -1e-12 * np.max(s)):
        return TypeVerdict.TYPE_II, None
    return TypeVerdict.INCONCLUSIVE, None


def roundness(c: CurveState):
    """max kappa / min kappa (1 for circles).

    Returns (ratio, convex); for non-convex curves (min kappa <= 0 in the
    orientation-normalized sign) the ratio of |kappa| extremes is returned
    with convex=False.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa, _, signed_area = _polyline_kernel(c.points)
    if not np.all(np.isfinite(kappa)):
        raise TranslabError("consecutive curve points coincide")
    k = kappa * np.sign(signed_area)
    kmin, kmax = float(np.min(k)), float(np.max(k))
    if kmin <= 0.0:
        ak = np.abs(k)
        ratio = float(np.max(ak) / max(np.min(ak), 1e-300))
        return ratio, False
    return kmax / kmin, True


# Vertex-segment pairs of one distance sample (len(P) * len(Q)); each pair
# holds a few float64 temporaries.  csf compare at CLI defaults (452 steps)
# took 4.3 s and 66.0 MB peak RSS at n = 256 and 15.1 s and 76.4 MB at
# n = 512: 0.12 us and 53 B per pair and sample.  At the bound (n = 1,024)
# that is about 0.13 s per sample (1 min at defaults) and 0.12 GB.
_MAX_PAIRS = 1 << 20


def check_pairs(na: int, nb: int):
    """Refuse curves of na and nb points past _MAX_PAIRS pairs per distance."""
    if min(na, nb) > 0 and na * nb > _MAX_PAIRS:
        raise TranslabError(f"curves of n = {na} and n = {nb} points need "
                            f"{na * nb} vertex-segment pairs per distance, "
                            f"more than {_MAX_PAIRS}")


def _min_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Min distance between two closed polylines (vertex-to-segment, both ways)."""
    def pts_to_segs(pts, poly):
        x, y = poly[:, 0], poly[:, 1]
        dx, dy = _shift_fwd(x) - x, _shift_fwd(y) - y
        wx = pts[:, 0, None] - x
        wy = pts[:, 1, None] - y
        tt = np.clip((wx * dx + wy * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        ex = wx - tt * dx
        ey = wy - tt * dy
        return float(np.sqrt(np.min(ex * ex + ey * ey)))

    return min(pts_to_segs(P, Q), pts_to_segs(Q, P))


def _inside_mask(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Crossing-number containment mask of pts w.r.t. a closed polyline."""
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x1, y1 = poly[:, 0][None, :], poly[:, 1][None, :]
    x2 = _shift_fwd(poly[:, 0])[None, :]
    y2 = _shift_fwd(poly[:, 1])[None, :]
    cond = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    crossings = np.sum(cond & (xcross > x), axis=1)
    return crossings % 2 == 1


def _curves_disjoint(P: np.ndarray, Q: np.ndarray, distance: float) -> bool:
    """Disjoint as point sets: positive separation (distance, their
    _min_distance) and no crossing.

    Nesting (one curve entirely inside the other) is disjoint; a crossing
    shows up as mixed containment parity of either vertex set.
    """
    if distance <= 0.0:
        return False
    for pts, poly in ((P, Q), (Q, P)):
        inside = _inside_mask(pts, poly)
        if inside.any() and not inside.all():
            return False
    return True


@dataclass
class ComparisonReport:
    """Separation time series of comparison_check, its first and least value
    and last time, the verdict ("PASS" or "FAIL"), each curve's area-law
    defect (as in SingularityLog) and the counters of _flow (steps taken;
    stopReason as in SingularityLog)."""

    times: np.ndarray = field(repr=False)
    minDistance: np.ndarray = field(repr=False)
    verdict: str
    tolerance: float
    initialDistance: float
    leastDistance: float
    finalTime: float
    areaLawDefect: list
    steps: int = 0
    stopReason: str | None = None


def comparison_check(a: CurveState, b: CurveState) -> ComparisonReport:
    """Co-evolve two disjoint curves from their common start time (refused
    unless a.t == b.t) and track their separation.

    The curves share the flow driver's dt (set by the larger Amax) until
    either reaches AMAX_STOP, a remesh loses resolution, dt stops advancing t
    or _MAX_STEPS run out; the minimum vertex-segment distance is sampled at
    the start and after every step.  PASS verdict: the distance never drops
    below its initial value minus 10 * (sum of squared initial mean edge
    lengths), a discretization error allowance.
    """
    if a.t != b.t:
        raise TranslabError(f"curves must start at one time, got a.t = {a.t!r} "
                            f"and b.t = {b.t!r}")
    check_pairs(len(a.points), len(b.points))
    flow = _flow([a.points, b.points], a.t)
    first = next(flow)      # the flow refuses a degenerate or outsized curve
    d0 = _min_distance(*first.curves)
    if not _curves_disjoint(*first.curves, d0):
        raise TranslabError("curves must be disjoint at t = 0")

    tol = 10.0 * (float(np.mean(_edge_lengths(a.points))) ** 2
                  + float(np.mean(_edge_lengths(b.points))) ** 2)
    times, dists, areas = [], [], []
    for state in itertools.chain([first], flow):
        times.append(state.t)
        dists.append(_min_distance(*state.curves) if state.steps else d0)
        areas.append([d[1] for d in state.diags])
    times, least = np.array(times), float(np.min(dists))
    return ComparisonReport(times=times, minDistance=np.array(dists),
                            verdict="PASS" if least >= dists[0] - tol else "FAIL",
                            tolerance=tol, initialDistance=dists[0],
                            leastDistance=least, finalTime=float(times[-1]),
                            areaLawDefect=[_area_law_defect(times, A)
                                           for A in np.array(areas).T],
                            steps=state.steps, stopReason=state.stopReason)
