"""Curve shortening flow on closed polylines.

Dziuk's semi-implicit scheme (M3AS 4, 1994; Deckelnick-Dziuk-Elliott, Acta
Numerica 14, 2005) applies the arclength second difference implicitly with
its metric (edge lengths) frozen at the current state: a linearly implicit
Euler step.  Stable far beyond the explicit ceiling dt ~ min(edge)^2, it
steps with dt = dtSafety / Amax^2 (2 dtSafety of a circle's remaining life),
made third order by extrapolating 1, 2 and 3 substeps of dt, dt/2 and dt/3,
each refreezing the metric at its own start (_extrapolated_step).  Every
_REMESH_EVERY (5) steps the curve is resampled to uniform arclength by
periodic cubic interpolation.  One driver (_flow) owns this policy, the stop
rules and the common dt of a curve pair.  Its states, raw (n, 2) arrays, are
consumed by the only three entry points that move a curve: run,
evolve_to and comparison_check.  Every numerical failure is a TranslabError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import InsufficientDataError, TranslabError
from .geom import CurveState, polyline_kernel, shift_bwd, shift_fwd

_gtsv, = get_lapack_funcs(("gtsv",), dtype=np.float64)

# SingularityLog.stopReason values
STOP_AMAX, RESOLUTION_LOST, MAX_STEPS, DT_UNDERFLOW = \
    "stopAmax", "resolutionLost", "maxSteps", "dtUnderflow"

_REMESH_EVERY = 5          # steps between arclength-uniform resamplings
_MAX_STEPS = 2_000_000     # step budget of one flow (stopReason MAX_STEPS)


@dataclass
class FlowConfig:
    dtSafety: float = 2e-2
    stopAmax: float = 1e4

    def __post_init__(self):
        # dt = dtSafety / Amax^2 is 2 dtSafety of a circle's remaining life;
        # the third-order step divides its time error by ~8 per halving of it
        if not (0.0 < self.dtSafety <= 0.05):
            raise ValueError("dtSafety must lie in (0, 0.05]")
        if not self.stopAmax > 0.0:     # NaN included
            raise ValueError("stopAmax must be positive")


class TypeVerdict(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class SingularityLog:
    """Flow diagnostics time series, fitted extinction data, and the counters
    of _flow (stopReason: STOP_AMAX, RESOLUTION_LOST, MAX_STEPS or
    DT_UNDERFLOW)."""

    times: np.ndarray
    Amax: np.ndarray
    length: np.ndarray
    area: np.ndarray
    fittedT: float | None = None
    typeVerdict: TypeVerdict | None = None
    Climsup: float | None = None
    fitWindowStart: int = 0
    steps: int = 0
    remeshes: int = 0
    stopReason: str | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.Amax = np.asarray(self.Amax, dtype=float)
        self.length = np.asarray(self.length, dtype=float)
        self.area = np.asarray(self.area, dtype=float)
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("log times must be strictly increasing")


def make_circle(radius: float = 1.0, n: int = 256, center=(0.0, 0.0)) -> CurveState:
    return make_ellipse(radius, radius, n, center)


def make_ellipse(a: float = 2.0, b: float = 1.0, n: int = 512,
                 center=(0.0, 0.0)) -> CurveState:
    ang = 2 * math.pi * np.arange(n) / n
    pts = np.stack([center[0] + a * np.cos(ang),
                    center[1] + b * np.sin(ang)], axis=1)
    return CurveState(points=pts)


# --- raw-array kernels --------------------------------------------------------


def _edge_lengths(P):
    d = shift_fwd(P) - P
    return np.hypot(d[:, 0], d[:, 1])


def _cyclic_tridiag_solve(sub, diag, sup, corner_bl, corner_tr, rhs):
    """Solve a cyclic tridiagonal system via Sherman-Morrison.

    sub[i] multiplies x_{i-1} in row i (i >= 1), sup[i] multiplies x_{i+1}
    (i <= n-2); corner_bl is row n-1's coefficient on x_0, corner_tr row 0's
    on x_{n-1}.  rhs may have several columns.
    """
    n = len(diag)
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= corner_tr * corner_bl / gamma

    B = np.zeros((n, rhs.shape[1] + 1), order="F")
    B[:, :-1] = rhs
    B[0, -1] = gamma
    B[-1, -1] = corner_bl
    sol, info = _gtsv(sub[1:], d, sup[:-1], B, overwrite_d=1, overwrite_b=1)[3:]
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
    ell_prev = shift_bwd(ell)
    a = 2.0 / (ell_prev * (ell_prev + ell))   # weight of x_{i-1}
    b = 2.0 / (ell * (ell_prev + ell))        # weight of x_{i+1}
    diag = 1.0 + dt * (a + b)
    return _cyclic_tridiag_solve(-dt * a, diag, -dt * b,
                                 corner_bl=-dt * b[-1], corner_tr=-dt * a[0],
                                 rhs=P)


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
    h_prev = shift_bwd(h)
    Pn = shift_fwd(P)
    Pp = shift_bwd(P)
    rhs = (Pn - P) / h[:, None] - (P - Pp) / h_prev[:, None]
    M = _cyclic_tridiag_solve(h_prev / 6.0, (h_prev + h) / 3.0, h / 6.0,
                              corner_bl=h[-1] / 6.0, corner_tr=h_prev[0] / 6.0,
                              rhs=rhs)

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
    time t whose amax is not finite (a point, a segment) is refused; one so
    large that its length or area overflows is left to _flow's dt rule."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa, length, area = polyline_kernel(P)
    amax = float(np.max(np.abs(kappa)))
    if not math.isfinite(amax):
        raise TranslabError(f"curvature not finite at t={t!r}")
    return length, abs(area), amax


# --- the flow driver ----------------------------------------------------------


def _flow(curves, t: float, cfg: FlowConfig, t_end: float = math.inf):
    """Yield the state at t and after every step: one object, updated in
    place, with t, curves, diags ((length, area, amax) per curve), steps,
    remeshes and stopReason.  The curves share dt = dtSafety / Amax^2, Amax
    the largest over them, the last step clipped to land on t_end exactly.
    The flow ends at t_end (stopReason None), after yielding a state with
    Amax >= stopAmax (STOP_AMAX), after _MAX_STEPS steps (MAX_STEPS), when dt
    no longer advances t in floating point (DT_UNDERFLOW), or when a remesh
    collapses an edge (RESOLUTION_LOST; that state is not yielded).  A state
    whose Amax is not finite (_diagnostics), or so small that dt is not,
    raises TranslabError.
    """
    state = SimpleNamespace(t=t, curves=[P.copy() for P in curves], steps=0,
                            remeshes=0, stopReason=None)
    while True:
        state.diags = [_diagnostics(P, state.t) for P in state.curves]
        yield state
        amax = max(d[2] for d in state.diags)
        if state.t >= t_end:
            return
        if amax >= cfg.stopAmax or state.steps == _MAX_STEPS:
            state.stopReason = STOP_AMAX if amax >= cfg.stopAmax else MAX_STEPS
            return
        # past length ~6e155 Amax^2 is subnormal or 0 and dt is not finite
        dt = cfg.dtSafety / amax ** 2 if amax ** 2 > 0.0 else math.inf
        if dt == math.inf:
            length = max(d[0] for d in state.diags)
            raise TranslabError(f"curve of length {length!r} is too large to "
                                f"flow: dtSafety / Amax^2 is not finite at "
                                f"Amax = {amax!r}")
        dt = min(dt, t_end - state.t)
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


# --- public entry points ------------------------------------------------------


def run(c0: CurveState, cfg: FlowConfig | None = None) -> SingularityLog:
    """Evolve until one of _flow's stop rules (log.stopReason), logging
    every step.  The extinction time is fitted by linear regression of
    1/Amax^2 against t over the final 30% of samples, and the singularity
    type verdict is attached via classify().
    """
    cfg = cfg or FlowConfig()
    times, diags = [], []
    for state in _flow([c0.points], c0.t, cfg):
        times.append(state.t)
        diags.append(state.diags[0])
    length, area, amax = np.array(diags).T
    log = SingularityLog(times=times, Amax=amax, length=length,
                         area=area, steps=state.steps,
                         remeshes=state.remeshes, stopReason=state.stopReason)
    _fit_extinction(log)
    try:
        classify(log)
    except InsufficientDataError:
        log.typeVerdict = TypeVerdict.INCONCLUSIVE
    return log


def evolve_to(c0: CurveState, t_target: float, cfg: FlowConfig | None = None) -> CurveState:
    """Evolve a curve to flow time exactly t_target (the stepping of run, last
    step clipped).  Raises TranslabError if the flow stops first, on
    resolution loss or for any other reason."""
    cfg = cfg or FlowConfig()
    for state in _flow([c0.points], c0.t, cfg, t_end=t_target):
        pass
    if state.stopReason == RESOLUTION_LOST:
        raise TranslabError("edge collapse after remeshing")
    if state.stopReason:
        raise TranslabError(f"{state.stopReason} at t={state.t!r} < {t_target!r}")
    return CurveState(points=state.curves[0], t=state.t)


def _fit_extinction(log: SingularityLog):
    """T from 1/Amax^2 ~ 2 (T - t): linear in t, root = extinction estimate."""
    m = len(log.times)
    if m < 10:
        return
    start = int(0.7 * m)
    log.fitWindowStart = start
    t = log.times[start:]
    y = 1.0 / log.Amax[start:] ** 2
    slope, intercept = np.polyfit(t, y, 1)
    if slope >= 0:
        return
    log.fittedT = float(-intercept / slope)


def classify(log: SingularityLog) -> TypeVerdict:
    """Type I/II verdict from the rescaled curvature s(t) = Amax sqrt(T - t).

    Type I when s stays bounded over the fit window (max/median <= 3), with
    Climsup = sqrt(2) * max s; Type II when s grows monotonically by >= 10x.
    The limsup definition is not computable at finite resolution, so anything
    else is Inconclusive.
    """
    if log.fittedT is None:
        raise InsufficientDataError("no fitted extinction time")
    start = log.fitWindowStart
    t = log.times[start:]
    amax = log.Amax[start:]
    sel = t < log.fittedT
    if sel.sum() < 20:
        raise InsufficientDataError("need >= 20 samples in the fit window")
    s = amax[sel] * np.sqrt(log.fittedT - t[sel])
    ratio = float(np.max(s) / np.median(s))
    if ratio <= 3.0:
        log.typeVerdict = TypeVerdict.TYPE_I
        log.Climsup = float(np.sqrt(2.0) * np.max(s))
    elif s[-1] / s[0] >= 10.0 and np.all(np.diff(s) > -1e-12 * np.max(s)):
        log.typeVerdict = TypeVerdict.TYPE_II
        log.Climsup = None
    else:
        log.typeVerdict = TypeVerdict.INCONCLUSIVE
        log.Climsup = None
    return log.typeVerdict


def roundness(c: CurveState):
    """max kappa / min kappa (1 for circles).

    Returns (ratio, convex); for non-convex curves (min kappa <= 0 in the
    orientation-normalized sign) the ratio of |kappa| extremes is returned
    with convex=False.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa, _, signed_area = polyline_kernel(c.points)
    if not np.all(np.isfinite(kappa)):
        raise TranslabError("consecutive curve points coincide")
    k = kappa * np.sign(signed_area)
    kmin, kmax = float(np.min(k)), float(np.max(k))
    if kmin <= 0.0:
        ak = np.abs(k)
        ratio = float(np.max(ak) / max(np.min(ak), 1e-300))
        return ratio, False
    return kmax / kmin, True


def _min_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Min distance between two closed polylines (vertex-to-segment, both ways)."""
    def pts_to_segs(pts, poly):
        x, y = poly[:, 0], poly[:, 1]
        dx, dy = shift_fwd(x) - x, shift_fwd(y) - y
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
    x2 = shift_fwd(poly[:, 0])[None, :]
    y2 = shift_fwd(poly[:, 1])[None, :]
    cond = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    crossings = np.sum(cond & (xcross > x), axis=1)
    return crossings % 2 == 1


def _curves_disjoint(P: np.ndarray, Q: np.ndarray) -> bool:
    """Disjoint as point sets: positive separation and no crossing.

    Nesting (one curve entirely inside the other) is disjoint; a crossing
    shows up as mixed containment parity of either vertex set.
    """
    if _min_distance(P, Q) <= 0.0:
        return False
    for pts, poly in ((P, Q), (Q, P)):
        inside = _inside_mask(pts, poly)
        if inside.any() and not inside.all():
            return False
    return True


@dataclass
class ComparisonReport:
    """Separation time series of comparison_check, with the counters of
    _flow (steps taken; stopReason as in SingularityLog)."""

    times: np.ndarray
    minDistance: np.ndarray
    verdict: bool
    tolerance: float
    steps: int = 0
    stopReason: str | None = None


def comparison_check(a: CurveState, b: CurveState,
                     cfg: FlowConfig | None = None) -> ComparisonReport:
    """Co-evolve two disjoint curves from their common start time (ValueError
    unless a.t == b.t) and track their separation.

    The curves share the flow driver's dt (set by the larger Amax) until
    either reaches stopAmax, a remesh loses resolution, dt stops advancing t
    or _MAX_STEPS run out; the minimum vertex-segment distance is sampled at
    the start and after every step.  PASS verdict: the distance never drops
    below its initial value minus 10 * (sum of squared initial mean edge
    lengths), a discretization error allowance.
    """
    cfg = cfg or FlowConfig()
    if a.t != b.t:
        raise ValueError(f"curves must start at one time, got a.t = {a.t!r} "
                         f"and b.t = {b.t!r}")
    for c in (a, b):        # refuse a point or a segment before any distance
        _diagnostics(c.points, c.t)
    if not _curves_disjoint(a.points, b.points):
        raise ValueError("curves must be disjoint at t = 0")

    tol = 10.0 * (float(np.mean(_edge_lengths(a.points))) ** 2
                  + float(np.mean(_edge_lengths(b.points))) ** 2)
    times, dists = [], []
    for state in _flow([a.points, b.points], a.t, cfg):
        times.append(state.t)
        dists.append(_min_distance(*state.curves))
    dists = np.array(dists)
    verdict = bool(np.min(dists) >= dists[0] - tol)
    return ComparisonReport(times=np.array(times), minDistance=dists,
                            verdict=verdict, tolerance=tol, steps=state.steps,
                            stopReason=state.stopReason)
